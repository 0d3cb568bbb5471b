(* Literal Alg. 2 (GreedySelectPairs), kept as the differential oracle
   for [Mcss_core.Selection.gsp]: after every pick, re-derive every
   remaining candidate's ratio from the current remainder and rescan for
   the argmax, lowest topic id on ties. Quadratic per subscriber; use
   only on small instances. Not used outside the tests. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection

(* Candidates are ordered by the exact key (max(ev_t, rem_v), topic id),
   ascending: minimising max(ev, rem) is the same as maximising the
   Alg. 1 ratio min(1, ev/rem) / (2 ev) = 1 / (2 max(ev, rem)), but
   comparing the key avoids float-division rounding breaking
   mathematically exact ties. *)
let gsp_key ~ev ~rem = Float.max ev rem

let gsp_reference_subscriber w ~tau ~eps v =
  let tv = Workload.interests w v in
  let k = Array.length tv in
  let tau_v = Workload.tau_v w ~tau v in
  let selected = Array.make k false in
  let picked = ref [] in
  let sum = ref 0. in
  while !sum < tau_v -. eps do
    let rem = tau_v -. !sum in
    let best = ref (-1) in
    let best_key = ref infinity in
    for i = 0 to k - 1 do
      if not selected.(i) then begin
        let key = gsp_key ~ev:(Workload.event_rate w tv.(i)) ~rem in
        if key < !best_key then begin
          best_key := key;
          best := i
        end
      end
    done;
    (* τ_v <= Σ_{t∈T_v} ev_t guarantees a candidate remains. *)
    assert (!best >= 0);
    selected.(!best) <- true;
    picked := tv.(!best) :: !picked;
    sum := !sum +. Workload.event_rate w tv.(!best)
  done;
  let topics = Array.of_list !picked in
  Array.sort compare topics;
  (topics, !sum)

let gsp_reference (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let per_subscriber =
    Array.init (Workload.num_subscribers w)
      (gsp_reference_subscriber w ~tau:p.Problem.tau ~eps)
  in
  let chosen = Array.map fst per_subscriber in
  let selected_rate = Array.map snd per_subscriber in
  {
    Selection.chosen;
    selected_rate;
    num_pairs = Array.fold_left (fun n topics -> n + Array.length topics) 0 chosen;
    outgoing_rate = Array.fold_left ( +. ) 0. selected_rate;
  }
