(* Content-addressed cache of campaign preparations (golden run +
   static analysis).  The key is the canonical JSON of
   every spec field that reaches the preparation — the program hash
   stands in for (workload, iterations, dataset), and the shard count
   is excluded because preparations are shard-independent — so a
   repeat or concurrent submission of the same campaign never re-runs
   the golden simulation or the static analysis. *)

module Json = Obs.Json

type value =
  | Rtl_prepared of Fault_injection.Campaign.prepared
  | Iss_prepared of Fault_injection.Iss_campaign.prepared

type t = {
  capacity : int;
  obs : Obs.t;
  mutable entries : (string * value) list;  (* most recently used first *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(obs = Obs.null) ?(capacity = 8) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  { capacity; obs; entries = []; hits = 0; misses = 0 }

let key ~prog_hash (spec : Protocol.spec) =
  Json.to_string
    (Json.Obj
       [ ("engine", Json.Str (Protocol.engine_name spec.Protocol.engine));
         ("prog_hash", Json.Int prog_hash);
         ("gate", Json.Bool spec.Protocol.gate);
         ("target", Json.Str spec.Protocol.target);
         ("samples", Json.Int spec.Protocol.samples);
         ("seed", Json.Int spec.Protocol.seed);
         ("hang_factor", Json.Int spec.Protocol.hang_factor) ])

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let find_or_build t ~key ~build =
  match List.assoc_opt key t.entries with
  | Some v ->
      t.hits <- t.hits + 1;
      Obs.incr t.obs "serve.cache.hits";
      t.entries <- (key, v) :: List.remove_assoc key t.entries;
      (v, true)
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr t.obs "serve.cache.misses";
      let v = build () in
      t.entries <- take t.capacity ((key, v) :: t.entries);
      (v, false)

let hits t = t.hits

let misses t = t.misses
