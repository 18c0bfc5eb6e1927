module C = Rtl.Circuit

type edge_kind = Comb_dep | Reg_d | Reg_en | Mem_we | Mem_addr | Mem_data | Mem_read

type vertex = Sig of C.signal | Mem of C.memory

(* Vertices are packed into one dense index space: signals first (at
   their creation index), memories after.  All per-vertex state lives
   in flat arrays. *)
type t = {
  circuit : C.t;
  nsigs : int;
  nmems : int;
  sig_handles : C.signal array;
  mem_handles : C.memory array;
  succ : (int * edge_kind) list array;
  pred : (int * edge_kind) list array;
  fanout : int array;  (* per signal: distinct sink vertices *)
  levels : int array;  (* per signal: comb depth, non-comb = 0 *)
  max_level : int;
}

let si (s : C.signal) = (s :> int)

let mi (m : C.memory) = (m :> int)

let vertex_index g = function Sig s -> si s | Mem m -> mi m + g.nsigs

let vertex_of_index g i = if i < g.nsigs then Sig g.sig_handles.(i) else Mem g.mem_handles.(i - g.nsigs)

let build circuit =
  let sig_handles = Array.of_list (List.map (fun (_, s, _) -> s) (C.signals circuit)) in
  let mem_handles =
    Array.of_list (List.map (fun (_, m, _, _) -> m) (C.memories circuit))
  in
  let nsigs = Array.length sig_handles in
  let nmems = Array.length mem_handles in
  let nverts = nsigs + nmems in
  let succ = Array.make nverts [] in
  let pred = Array.make nverts [] in
  let add src dst kind =
    succ.(src) <- (dst, kind) :: succ.(src);
    pred.(dst) <- (src, kind) :: pred.(dst)
  in
  Array.iteri
    (fun i s ->
      match C.node_view circuit s with
      | C.V_input | C.V_const _ -> ()
      | C.V_comb deps ->
          Array.iter (fun d -> add (si d) i Comb_dep) deps;
          Option.iter
            (fun m -> add (nsigs + mi m) i Mem_read)
            (C.read_port_memory circuit s)
      | C.V_register { d; en; _ } ->
          add (si d) i Reg_d;
          Option.iter (fun e -> add (si e) i Reg_en) en)
    sig_handles;
  Array.iteri
    (fun j m ->
      List.iter
        (fun (we, addr, data) ->
          add (si we) (nsigs + j) Mem_we;
          add (si addr) (nsigs + j) Mem_addr;
          add (si data) (nsigs + j) Mem_data)
        (C.write_ports circuit m))
    mem_handles;
  let fanout =
    Array.init nsigs (fun i ->
        List.length (List.sort_uniq compare (List.map fst succ.(i))))
  in
  (* Comb dependencies always predate the comb node (handles are
     creation order), so one creation-order sweep computes levels. *)
  let levels = Array.make nsigs 0 in
  let max_level = ref 0 in
  Array.iteri
    (fun i s ->
      match C.node_view circuit s with
      | C.V_comb deps ->
          let deepest = Array.fold_left (fun acc d -> max acc levels.(si d)) 0 deps in
          levels.(i) <- deepest + 1;
          if levels.(i) > !max_level then max_level := levels.(i)
      | C.V_input | C.V_const _ | C.V_register _ -> ())
    sig_handles;
  { circuit; nsigs; nmems; sig_handles; mem_handles; succ; pred; fanout; levels;
    max_level = !max_level }

let circuit g = g.circuit

let signal_count g = g.nsigs

let memory_count g = g.nmems

let signal_handles g = g.sig_handles

let edge_count g = Array.fold_left (fun n l -> n + List.length l) 0 g.pred

let edges_of g arr v =
  List.rev_map (fun (i, k) -> (vertex_of_index g i, k)) arr.(vertex_index g v)

let preds g v = edges_of g g.pred v

let succs g v = edges_of g g.succ v

let fanout g s = g.fanout.(si s)

let level g s = g.levels.(si s)

let max_level g = g.max_level

type cone = { in_sig : bool array; in_mem : bool array; size : int }

let backward_cone g roots =
  let visited = Array.make (g.nsigs + g.nmems) false in
  let stack = ref [] in
  let push i =
    if not visited.(i) then begin
      visited.(i) <- true;
      stack := i :: !stack
    end
  in
  List.iter (fun s -> push (si s)) roots;
  let rec walk () =
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        List.iter (fun (u, _) -> push u) g.pred.(v);
        walk ()
  in
  walk ();
  let size = Array.fold_left (fun n b -> if b then n + 1 else n) 0 visited in
  { in_sig = Array.sub visited 0 g.nsigs;
    in_mem = Array.sub visited g.nsigs g.nmems;
    size }

let cone_signal cone s = cone.in_sig.(si s)

let cone_memory cone m = cone.in_mem.(mi m)

let cone_site cone = function
  | C.Node (s, _) -> cone_signal cone s
  | C.Cell (m, _, _) -> cone_memory cone m

let cone_size cone = cone.size
