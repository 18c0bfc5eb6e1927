type t = {
  level : int array;
  bucket : int array array;
  fill : int array;
  stamp : int array;
  mutable epoch : int;
}

(* A node is queued at most once per epoch, so a bucket never holds
   more entries than its level has nodes: each is sized exactly, and
   pushing never allocates. *)
let create ~level ~max_level =
  let size = Array.make (max_level + 1) 0 in
  Array.iter (fun l -> size.(l) <- size.(l) + 1) level;
  { level;
    bucket = Array.map (fun n -> Array.make n 0) size;
    fill = Array.make (max_level + 1) 0;
    stamp = Array.make (Array.length level) 0;
    epoch = 0 }

let start wl =
  wl.epoch <- wl.epoch + 1;
  Array.fill wl.fill 0 (Array.length wl.fill) 0
