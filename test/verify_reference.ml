(* The tuple-keyed verifier that [Mcss_core.Verifier.verify] replaced,
   kept verbatim as the differential oracle: the flat-array verifier must
   produce the same report on any plan, up to the order of the
   [Pair_missing] run (hash-table order here, (subscriber, topic)
   ascending there). Not used outside the tests. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
open Mcss_core.Verifier

let verify_reference (p : Problem.t) (s : Selection.t) a =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Pair bookkeeping: which selected pairs have we seen placed? *)
  let placed : (int * int, int) Hashtbl.t = Hashtbl.create (2 * s.Selection.num_pairs) in
  let delivered = Array.make (Workload.num_subscribers w) 0. in
  let selected : (int * int, unit) Hashtbl.t = Hashtbl.create (2 * s.Selection.num_pairs) in
  Selection.iter_pairs s (fun t v -> Hashtbl.replace selected (t, v) ());
  let total_bandwidth = ref 0. in
  Array.iter
    (fun vm ->
      let outgoing = ref 0. in
      let incoming = ref 0. in
      let topics_seen = Hashtbl.create 16 in
      Allocation.iter_vm_pairs vm (fun t v ->
          let ev = Workload.event_rate w t in
          outgoing := !outgoing +. ev;
          if not (Hashtbl.mem topics_seen t) then begin
            Hashtbl.add topics_seen t ();
            incoming := !incoming +. ev
          end;
          (match Hashtbl.find_opt placed (t, v) with
          | None ->
              Hashtbl.add placed (t, v) 1;
              delivered.(v) <- delivered.(v) +. ev
          | Some n ->
              if n = 1 then add (Pair_duplicated { topic = t; subscriber = v });
              Hashtbl.replace placed (t, v) (n + 1));
          if not (Hashtbl.mem selected (t, v)) then
            add (Pair_not_selected { topic = t; subscriber = v }));
      let recomputed = !outgoing +. !incoming in
      total_bandwidth := !total_bandwidth +. recomputed;
      if recomputed > p.Problem.capacity +. eps then
        add (Over_capacity { vm = Allocation.vm_id vm; load = recomputed });
      if Float.abs (recomputed -. Allocation.load vm) > eps then
        add
          (Load_mismatch
             {
               vm = Allocation.vm_id vm;
               tracked = Allocation.load vm;
               recomputed;
             }))
    (Allocation.vms a);
  Hashtbl.iter
    (fun (t, v) () ->
      if not (Hashtbl.mem placed (t, v)) then
        add (Pair_missing { topic = t; subscriber = v }))
    selected;
  for v = 0 to Workload.num_subscribers w - 1 do
    let required = Problem.tau_v p v in
    if delivered.(v) +. eps < required then
      add (Unsatisfied { subscriber = v; delivered = delivered.(v); required })
  done;
  {
    violations = List.rev !violations;
    num_vms = Allocation.num_vms a;
    total_bandwidth = !total_bandwidth;
    cost = Problem.cost p ~vms:(Allocation.num_vms a) ~bandwidth:!total_bandwidth;
  }
