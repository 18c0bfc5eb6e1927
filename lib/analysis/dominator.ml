module C = Rtl.Circuit

(* Post-dominator tree of the dependency graph with respect to the
   observation boundary: [ipdom v] is the unique vertex every forward
   (data-flow) path from [v] to an exit passes through first.

   Computed as a dominator tree of the reversed graph rooted at a
   virtual exit node, with the Cooper–Harvey–Kennedy iterative
   algorithm: engineered for the exact shape we have (a mostly-DAG
   netlist with a few register-crossing cycles), it converges in two
   or three passes over the reverse post-order. *)

type t = {
  graph : Graph.t;
  nverts : int;
  (* reachability from the virtual root along reversed edges — i.e.
     membership in the backward cone of the exits; vertices outside
     it have no path to any observation point *)
  reach : bool array;
  (* immediate dominator in the reversed graph, indexed by dense
     vertex index; the virtual root is index [nverts] and is its own
     idom; unreachable vertices hold [-1] *)
  idom : int array;
}

let dedup l = List.sort_uniq compare l

let build (g : Graph.t) ~(exits : C.signal list) =
  let nverts = Graph.signal_count g + Graph.memory_count g in
  let root = nverts in
  let vi v = Graph.vertex_index g v in
  let exit_idx = dedup (List.map (fun s -> vi (Graph.Sig s)) exits) in
  let is_exit = Array.make nverts false in
  List.iter (fun i -> is_exit.(i) <- true) exit_idx;
  (* Adjacency in the reversed graph, deduplicated: successors are the
     forward predecessors (for the root-first DFS), predecessors are
     the forward successors (for the idom intersection). *)
  let rsucc =
    Array.init nverts (fun i ->
        dedup (List.map (fun (u, _) -> vi u) (Graph.preds g (Graph.vertex_of_index g i))))
  in
  let rpred =
    Array.init nverts (fun i ->
        dedup (List.map (fun (u, _) -> vi u) (Graph.succs g (Graph.vertex_of_index g i))))
  in
  (* Depth-first post-order from the virtual root; reversed it is the
     RPO the iteration sweeps.  Iterative, two-phase stack (enter /
     exit), because netlist cones are deep enough to overflow the
     OCaml stack on a recursive walk. *)
  let reach = Array.make (nverts + 1) false in
  let post = ref [] in
  let stack = ref [ (root, false) ] in
  reach.(root) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (v, expanded) :: rest ->
        stack := rest;
        if expanded then post := v :: !post
        else begin
          stack := (v, true) :: !stack;
          let next = if v = root then exit_idx else rsucc.(v) in
          List.iter
            (fun u ->
              if not reach.(u) then begin
                reach.(u) <- true;
                stack := (u, false) :: !stack
              end)
            next
        end
  done;
  (* finished vertices are prepended, so [!post] is the reverse
     post-order already (root first) *)
  let rpo = Array.of_list !post in
  let rpo_num = Array.make (nverts + 1) max_int in
  Array.iteri (fun n v -> rpo_num.(v) <- n) rpo;
  let idom = Array.make (nverts + 1) (-1) in
  idom.(root) <- root;
  let rec intersect f1 f2 =
    if f1 = f2 then f1
    else if rpo_num.(f1) > rpo_num.(f2) then intersect idom.(f1) f2
    else intersect f1 idom.(f2)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun v ->
        if v <> root then begin
          let preds = if is_exit.(v) then root :: rpred.(v) else rpred.(v) in
          let new_idom =
            List.fold_left
              (fun acc p ->
                if p <= nverts && reach.(p) && idom.(p) >= 0 then
                  match acc with None -> Some p | Some a -> Some (intersect a p)
                else acc)
              None preds
          in
          match new_idom with
          | Some d when idom.(v) <> d ->
              idom.(v) <- d;
              changed := true
          | Some _ | None -> ()
        end)
      rpo
  done;
  { graph = g; nverts; reach = Array.sub reach 0 nverts; idom }

let reachable t v = t.reach.(Graph.vertex_index t.graph v)

let ipdom t v =
  let i = Graph.vertex_index t.graph v in
  if not t.reach.(i) then None
  else
    let d = t.idom.(i) in
    if d < 0 || d >= t.nverts then None else Some (Graph.vertex_of_index t.graph d)

let tree_size t =
  let n = ref 0 in
  Array.iter (fun b -> if b then incr n) t.reach;
  !n
