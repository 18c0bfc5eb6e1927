(* Crash-safe line files: whole-file replacement through [.tmp] +
   fsync + rename + directory fsync, batched-fsync appends, and the
   torn-tail load rule.  Every [Unix.fsync] and rename in the program
   lives here. *)

type appender = {
  oc : out_channel;
  sync_every : int;
  mutable pending : int;
  mutable closed : bool;
  lock : Mutex.t;
}

let sync oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Fsyncing a file makes its contents durable; making a rename
   durable needs an fsync of the containing directory.  Some
   filesystems reject directory fsync: durability is then whatever the
   mount gives, so this one failure is swallowed. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let output_line oc line =
  output_string oc line;
  output_char oc '\n'

(* The renamed file keeps the open descriptor, so appends go on
   through the channel that wrote the contents. *)
let start ~sync_every path lines =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     List.iter (output_line oc) lines;
     sync oc;
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     raise e);
  fsync_dir (Filename.dirname path);
  { oc; sync_every; pending = 0; closed = false;
    lock = Mutex.create () }

let locked a f =
  Mutex.lock a.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock a.lock) f

let append a line =
  locked a @@ fun () ->
  if a.closed then invalid_arg "Durable.append: closed";
  output_line a.oc line;
  a.pending <- a.pending + 1;
  if a.pending >= a.sync_every then begin
    sync a.oc;
    a.pending <- 0
  end

(* with nothing pending every line is already fsync'd *)
let close a =
  locked a @@ fun () ->
  if not a.closed then begin
    a.closed <- true;
    Fun.protect
      ~finally:(fun () -> close_out_noerr a.oc)
      (fun () -> if a.pending > 0 then sync a.oc)
  end

let write_file path lines = close (start ~sync_every:1 path lines)

let load path ~header ~record =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  (* only complete lines count: what follows the last newline is an
     unterminated, torn append *)
  let lines =
    match String.rindex_opt contents '\n' with
    | None -> []
    | Some k -> String.split_on_char '\n' (String.sub contents 0 k)
  in
  let error line msg = Error (Printf.sprintf "%s: line %d: %s" path line msg) in
  match lines with
  | [] -> Error (Printf.sprintf "%s: empty file" path)
  | first :: rest -> (
      match header first with
      | Error msg -> error 1 msg
      | Ok h ->
          let rec go line acc = function
            | [] -> Ok (h, List.rev acc)
            | l :: tl -> (
                match record l with
                | Ok r -> go (line + 1) (r :: acc) tl
                | Error _ when tl = [] -> Ok (h, List.rev acc)
                | Error msg -> error line msg)
          in
          go 2 [] rest)
