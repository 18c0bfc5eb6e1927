module C = Rtl.Circuit

type t = { map : (C.fault_site * C.fault_model, C.fault_site * C.fault_model) Hashtbl.t }

let sa = function 0 -> C.Stuck_at_0 | _ -> C.Stuck_at_1

(* All probing writes into one scratch array indexed by node id; the
   evaluator only reads its dependency slots, so stale entries from
   earlier nodes are harmless. *)

let analyse_unary c g map scratch ~keep ~max_probe_bits o d =
  let wo = C.signal_width c o and wd = C.signal_width c d in
  if wo = wd && wo <= max_probe_bits && (not (keep d)) && Graph.fanout g d = 1 then begin
    let mask = (1 lsl wo) - 1 in
    let idd = (d :> int) in
    let is_fwd = ref true and is_inv = ref true in
    let x = ref 0 in
    while (!is_fwd || !is_inv) && !x <= mask do
      scratch.(idd) <- !x;
      let r = C.probe_comb c o scratch land mask in
      if r <> !x then is_fwd := false;
      if r <> lnot !x land mask then is_inv := false;
      incr x
    done;
    if !is_fwd then
      for b = 0 to wo - 1 do
        Hashtbl.replace map (C.Node (d, b), C.Stuck_at_0) (C.Node (o, b), C.Stuck_at_0);
        Hashtbl.replace map (C.Node (d, b), C.Stuck_at_1) (C.Node (o, b), C.Stuck_at_1)
      done
    else if !is_inv then
      for b = 0 to wo - 1 do
        Hashtbl.replace map (C.Node (d, b), C.Stuck_at_0) (C.Node (o, b), C.Stuck_at_1);
        Hashtbl.replace map (C.Node (d, b), C.Stuck_at_1) (C.Node (o, b), C.Stuck_at_0)
      done
  end

let analyse_controlling c g map scratch ~keep ~max_probe_bits o dd =
  let dd = Array.of_list dd in
  let widths = Array.map (C.signal_width c) dd in
  let total_bits = Array.fold_left ( + ) 0 widths in
  if total_bits <= max_probe_bits then begin
    let nd = Array.length dd in
    (* seen.(i).(b).(v): bitmask of output values observed over the
       full truth table restricted to dep [i] bit [b] = [v].  A mask
       of exactly {0} or {1} is a controlling-value proof. *)
    let seen = Array.init nd (fun i -> Array.make_matrix widths.(i) 2 0) in
    for assignment = 0 to (1 lsl total_bits) - 1 do
      let off = ref 0 in
      for i = 0 to nd - 1 do
        scratch.((dd.(i) :> int)) <- (assignment lsr !off) land ((1 lsl widths.(i)) - 1);
        off := !off + widths.(i)
      done;
      let r = C.probe_comb c o scratch land 1 in
      let off = ref 0 in
      for i = 0 to nd - 1 do
        let v = (assignment lsr !off) land ((1 lsl widths.(i)) - 1) in
        for b = 0 to widths.(i) - 1 do
          let bitv = (v lsr b) land 1 in
          seen.(i).(b).(bitv) <- seen.(i).(b).(bitv) lor (1 lsl r)
        done;
        off := !off + widths.(i)
      done
    done;
    Array.iteri
      (fun i d ->
        if (not (keep d)) && Graph.fanout g d = 1 then
          for b = 0 to widths.(i) - 1 do
            for forced = 0 to 1 do
              match seen.(i).(b).(forced) with
              | 1 -> Hashtbl.replace map (C.Node (d, b), sa forced) (C.Node (o, 0), C.Stuck_at_0)
              | 2 -> Hashtbl.replace map (C.Node (d, b), sa forced) (C.Node (o, 0), C.Stuck_at_1)
              | _ -> ()
            done
          done)
      dd
  end

(* Dominance collapsing: [s] is a 1-bit comb node with fan-out (the
   classic rules above never fire on it), [d] its immediate
   post-dominator.  Every path from [s] to the observation boundary
   passes through [d]; if forcing [s] to a constant provably forces
   [d] to a constant [k] for every assignment of the region's external
   inputs, then stuck-at on [s] is observationally stuck-at-[k] on
   [d] — all divergence between the two faulty circuits is confined
   to vertices whose every exit path crosses the (constant) [d].

   The reconvergence region is gathered by forward BFS from [s],
   stopping at [d]; register / memory / read-port vertices inside it
   are cut edges (their influence re-enters, if at all, as free
   external inputs, which only weakens the proof), and the proof is an
   exhaustive evaluation of the region's truth table restricted to
   the forced [s]. *)

let analyse_dominance c g dom map scratch ~keep ~max_region ~max_ext_bits s =
  let is_comb v = match C.node_view c v with C.V_comb _ -> true | _ -> false in
  if C.signal_width c s = 1 && (not (keep s)) && Graph.fanout g s >= 2 && is_comb s
  then
    match Dominator.ipdom dom (Graph.Sig s) with
    | Some (Graph.Sig d)
      when (d :> int) <> (s :> int)
           && C.signal_width c d = 1 && is_comb d
           && C.read_port_memory c d = None -> (
        try
          let interior = Hashtbl.create 16 in
          let ok = ref true in
          let queue = Queue.create () in
          let visit v = Queue.add v queue in
          List.iter (fun (v, _) -> visit v) (Graph.succs g (Graph.Sig s));
          while !ok && not (Queue.is_empty queue) do
            match Queue.pop queue with
            | Graph.Mem _ -> ()  (* cut: re-enters as an external, if at all *)
            | Graph.Sig u ->
                if (u :> int) <> (d :> int) && not (Hashtbl.mem interior (u :> int))
                then
                  if keep u then ok := false
                  else if is_comb u && C.read_port_memory c u = None then begin
                    Hashtbl.replace interior (u :> int) u;
                    if Hashtbl.length interior > max_region then ok := false
                    else List.iter (fun (v, _) -> visit v) (Graph.succs g (Graph.Sig u))
                  end
                  (* registers and read ports cut the walk, like memories *)
          done;
          if !ok then begin
            (* Evaluation order: interior then [d], by creation id —
               comb dependencies always predate their reader. *)
            let order =
              List.sort compare (d :: Hashtbl.fold (fun _ u acc -> u :: acc) interior [])
            in
            let in_region (u : C.signal) =
              (u :> int) = (s :> int) || Hashtbl.mem interior (u :> int)
            in
            let externals = Hashtbl.create 16 in
            List.iter
              (fun u ->
                match C.node_view c u with
                | C.V_comb deps ->
                    Array.iter
                      (fun (dep : C.signal) ->
                        if not (in_region dep) && not (Hashtbl.mem externals (dep :> int))
                        then Hashtbl.replace externals (dep :> int) dep)
                      deps
                | _ -> ())
              order;
            (* Constants keep their value; everything else is a free
               input of the truth table. *)
            let free = ref [] and free_bits = ref 0 in
            Hashtbl.iter
              (fun _ dep ->
                match C.node_view c dep with
                | C.V_const v -> scratch.((dep :> int)) <- v
                | _ ->
                    free := dep :: !free;
                    free_bits := !free_bits + C.signal_width c dep)
              externals;
            if !free_bits <= max_ext_bits then begin
              let free = Array.of_list !free in
              for forced = 0 to 1 do
                scratch.((s :> int)) <- forced;
                let seen = ref 0 in
                let assignment = ref 0 in
                (* early exit: one counterexample pair refutes
                   constancy, and most candidates are refuted within a
                   handful of assignments *)
                while !seen <> 3 && !assignment < 1 lsl !free_bits do
                  let off = ref 0 in
                  Array.iter
                    (fun dep ->
                      let w = C.signal_width c dep in
                      scratch.((dep :> int)) <- (!assignment lsr !off) land ((1 lsl w) - 1);
                      off := !off + w)
                    free;
                  List.iter
                    (fun (u : C.signal) ->
                      scratch.((u :> int)) <-
                        C.probe_comb c u scratch
                        land ((1 lsl C.signal_width c u) - 1))
                    order;
                  seen := !seen lor (1 lsl (scratch.((d :> int)) land 1));
                  incr assignment
                done;
                match !seen with
                | 1 -> Hashtbl.replace map (C.Node (s, 0), sa forced) (C.Node (d, 0), C.Stuck_at_0)
                | 2 -> Hashtbl.replace map (C.Node (s, 0), sa forced) (C.Node (d, 0), C.Stuck_at_1)
                | _ -> ()
              done
            end
          end
        with _ -> ())
    | Some (Graph.Sig _ | Graph.Mem _) | None -> ()

let build ?(max_probe_bits = 12) ?dom g ~keep =
  let c = Graph.circuit g in
  let scratch = Array.make (Graph.signal_count g) 0 in
  let map = Hashtbl.create 256 in
  Array.iter
    (fun o ->
      match C.node_view c o with
      | C.V_comb deps when C.read_port_memory c o = None -> (
          (* An evaluator that raises on some probe input proves
             nothing; skip the node rather than crash the pass. *)
          try
            let dd = List.sort_uniq compare (Array.to_list deps) in
            (match dd with
            | [ d ] -> analyse_unary c g map scratch ~keep ~max_probe_bits o d
            | [] | _ :: _ :: _ -> ());
            if C.signal_width c o = 1 && dd <> [] then
              analyse_controlling c g map scratch ~keep ~max_probe_bits o dd
          with _ -> ())
      | C.V_comb _ | C.V_input | C.V_const _ | C.V_register _ -> ())
    (Graph.signal_handles g);
  (match dom with
  | None -> ()
  | Some dom ->
      let max_ext_bits = min 8 max_probe_bits in
      Array.iter
        (fun s ->
          analyse_dominance c g dom map scratch ~keep ~max_region:24 ~max_ext_bits s)
        (Graph.signal_handles g));
  { map }

let rec resolve t site model =
  match Hashtbl.find_opt t.map (site, model) with
  | Some (site', model') -> resolve t site' model'
  | None -> (site, model)

let mapped t = Hashtbl.length t.map
