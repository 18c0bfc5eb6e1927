type t = { mutable countdown : int; mutable ready_out : bool }

(* Cycles between a bus request and its acknowledgement. *)
let latency = 1

let idle () = { countdown = -1; ready_out = false }

let step p ~req =
  if p.ready_out then begin
    (* Transaction acknowledged during the current cycle. *)
    p.ready_out <- false;
    p.countdown <- -1;
    false
  end
  else if not req then begin
    p.countdown <- -1;
    false
  end
  else begin
    if p.countdown < 0 then p.countdown <- latency;
    p.countdown <- p.countdown - 1;
    p.ready_out <- p.countdown <= 0;
    p.ready_out
  end
