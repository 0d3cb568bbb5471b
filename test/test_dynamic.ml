(* Tests for workload deltas and the engine's whole-problem paths:
   all-dirty re-provisioning ([Engine.retarget] with drift re-solves off)
   and consolidation. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Delta = Mcss_engine.Delta
module Engine = Mcss_engine.Engine

let base () =
  Helpers.workload ~rates:[ 20.; 10.; 5. ] ~interests:[ [ 0; 1 ]; [ 1; 2 ]; [ 2 ] ]

let test_apply_subscribe () =
  let w = Delta.apply (base ()) [ Delta.Subscribe { subscriber = 2; topic = 0 } ] in
  Alcotest.(check (array int)) "added" [| 0; 2 |] (Workload.interests w 2);
  Helpers.check_int "pairs" 6 (Workload.num_pairs w)

let test_apply_unsubscribe () =
  let w = Delta.apply (base ()) [ Delta.Unsubscribe { subscriber = 0; topic = 1 } ] in
  Alcotest.(check (array int)) "removed" [| 0 |] (Workload.interests w 0)

let test_apply_rate_change () =
  let w = Delta.apply (base ()) [ Delta.Rate_change { topic = 1; rate = 99. } ] in
  Helpers.check_float "changed" 99. (Workload.event_rate w 1);
  Helpers.check_float "others untouched" 20. (Workload.event_rate w 0)

let test_apply_new_topic_and_subscriber () =
  let w =
    Delta.apply (base ())
      [
        Delta.New_topic { rate = 7. };
        Delta.New_subscriber { interests = [| 3; 0 |] };
        Delta.Subscribe { subscriber = 3; topic = 1 };
      ]
  in
  Helpers.check_int "topics" 4 (Workload.num_topics w);
  Helpers.check_int "subscribers" 4 (Workload.num_subscribers w);
  Helpers.check_float "new rate" 7. (Workload.event_rate w 3);
  Alcotest.(check (array int)) "new subscriber" [| 0; 1; 3 |] (Workload.interests w 3)

let test_apply_order_sensitive () =
  (* A topic introduced in the batch can be referenced later in it. *)
  let w =
    Delta.apply (base ())
      [ Delta.New_topic { rate = 3. }; Delta.Subscribe { subscriber = 0; topic = 3 } ]
  in
  Alcotest.(check (array int)) "uses fresh id" [| 0; 1; 3 |] (Workload.interests w 0)

let expect_invalid name deltas =
  match Delta.apply (base ()) deltas with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_apply_rejects () =
  expect_invalid "double subscribe" [ Delta.Subscribe { subscriber = 0; topic = 0 } ];
  expect_invalid "unsubscribe unheld" [ Delta.Unsubscribe { subscriber = 0; topic = 2 } ];
  expect_invalid "bad topic" [ Delta.Subscribe { subscriber = 0; topic = 9 } ];
  expect_invalid "bad subscriber" [ Delta.Subscribe { subscriber = 9; topic = 0 } ];
  expect_invalid "zero rate" [ Delta.Rate_change { topic = 0; rate = 0. } ];
  expect_invalid "future id" [ Delta.Subscribe { subscriber = 0; topic = 3 } ]

let test_pp () =
  let s = Format.asprintf "%a" Delta.pp (Delta.Rate_change { topic = 3; rate = 5. }) in
  Helpers.check_bool "renders" true (Helpers.contains ~needle:"rate(3" s)

let problem_for w =
  Problem.create ~workload:w ~tau:25. ~capacity:120.
    (Problem.linear_costs ~vm_usd:10. ~per_event_usd:0.001)

let valid eng =
  let { Engine.problem; selection; allocation } = Engine.plan eng in
  Verifier.is_valid (Verifier.verify problem selection allocation)

(* Drift re-solves off: every retarget is in-place surgery. *)
let surgery_engine p = Engine.create ~drift_threshold:infinity p

let test_noop_reprovision_zero_churn () =
  let p = problem_for (base ()) in
  let eng = surgery_engine p in
  let cost = Engine.cost eng in
  let stats = Engine.retarget eng p in
  Helpers.check_bool "valid" true (valid eng);
  Helpers.check_int "nothing added" 0 stats.Engine.pairs_added;
  Helpers.check_int "nothing removed" 0 stats.Engine.pairs_removed;
  Helpers.check_int "nothing evicted" 0 stats.Engine.pairs_evicted;
  Helpers.check_float "same cost" cost (Engine.cost eng)

let test_subscribe_reprovision () =
  let w = base () in
  let eng = surgery_engine (problem_for w) in
  let w' = Delta.apply w [ Delta.Subscribe { subscriber = 2; topic = 0 } ] in
  let stats = Engine.retarget eng (problem_for w') in
  Helpers.check_bool "valid" true (valid eng);
  (* Subscriber 2's tau_v rose from 5 to 25, so it needs more pairs. *)
  Helpers.check_bool "pairs were added" true (stats.Engine.pairs_added > 0);
  Helpers.check_bool "old pairs kept in place" true (stats.Engine.pairs_kept > 0)

let test_rate_increase_forces_eviction () =
  (* Tight capacity, then triple one topic's rate: its VM must overflow
     and shed pairs. *)
  let w = Helpers.workload ~rates:[ 30.; 30. ] ~interests:[ [ 0 ]; [ 0 ]; [ 1 ] ] in
  let tight tau w = Problem.create ~workload:w ~tau ~capacity:130. Problem.unit_costs in
  let eng = surgery_engine (tight 30. w) in
  let w' = Delta.apply w [ Delta.Rate_change { topic = 0; rate = 60. } ] in
  let stats = Engine.retarget eng (tight 30. w') in
  Helpers.check_bool "valid after eviction" true (valid eng);
  Helpers.check_bool "something moved" true
    (stats.Engine.pairs_evicted > 0 || stats.Engine.vms_added > 0)

let test_unsubscribe_can_shrink_fleet () =
  let w = Helpers.workload ~rates:[ 50.; 50. ] ~interests:[ [ 0 ]; [ 1 ] ] in
  let problem w = Problem.create ~workload:w ~tau:50. ~capacity:110. Problem.unit_costs in
  let eng = surgery_engine (problem w) in
  Helpers.check_int "two VMs initially" 2 (Engine.num_vms eng);
  let w' = Delta.apply w [ Delta.Unsubscribe { subscriber = 1; topic = 1 } ] in
  let stats = Engine.retarget eng (problem w') in
  Helpers.check_bool "valid" true (valid eng);
  Helpers.check_int "one VM dropped" 1 stats.Engine.vms_removed;
  Helpers.check_int "fleet shrank" 1 (Engine.num_vms eng)

(* Random delta streams: every intermediate plan must verify, and churn
   must stay no larger than the full pair population. *)
let delta_stream_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* steps = int_range 1 6 in
    return (seed, steps))

let random_delta rng w =
  let open Mcss_prng in
  let nt = Workload.num_topics w and ns = Workload.num_subscribers w in
  match Rng.int rng 5 with
  | 0 -> Delta.New_topic { rate = float_of_int (1 + Rng.int rng 30) }
  | 1 ->
      let k = 1 + Rng.int rng (min 4 nt) in
      Delta.New_subscriber { interests = Rng.sample_without_replacement rng k nt }
  | 2 ->
      let topic = Rng.int rng nt in
      Delta.Rate_change { topic; rate = float_of_int (1 + Rng.int rng 40) }
  | 3 ->
      (* Find a (subscriber, unheld topic) pair if one exists. *)
      let v = Rng.int rng ns in
      let held = Workload.interests w v in
      let candidates =
        List.filter (fun t -> not (Array.mem t held)) (List.init nt (fun t -> t))
      in
      (match candidates with
      | [] -> Delta.New_topic { rate = 5. }
      | _ -> Delta.Subscribe { subscriber = v; topic = List.nth candidates (Rng.int rng (List.length candidates)) })
  | _ ->
      let v = Rng.int rng ns in
      let held = Workload.interests w v in
      if Array.length held <= 1 then Delta.New_topic { rate = 5. }
      else Delta.Unsubscribe { subscriber = v; topic = held.(Rng.int rng (Array.length held)) }

let prop_reprovision_always_valid =
  Helpers.qtest ~count:60 "incremental plans verify across random delta streams"
    (QCheck.make delta_stream_gen ~print:(fun (seed, steps) ->
         Printf.sprintf "seed=%d steps=%d" seed steps))
    (fun (seed, steps) ->
      let rng = Mcss_prng.Rng.create seed in
      let w =
        ref (Helpers.random_workload rng ~num_topics:12 ~num_subscribers:15 ~max_rate:20
               ~max_interests:4)
      in
      let problem w = Problem.create ~workload:w ~tau:30. ~capacity:200. Problem.unit_costs in
      let eng = surgery_engine (problem !w) in
      let ok = ref (valid eng) in
      for _ = 1 to steps do
        if !ok then begin
          let delta = random_delta rng !w in
          w := Delta.apply !w [ delta ];
          ignore (Engine.retarget eng (problem !w));
          ok := valid eng
        end
      done;
      !ok)

let prop_reprovision_cost_tracks_cold_solve =
  Helpers.qtest ~count:40 "incremental cost stays within 2x of a cold solve"
    (QCheck.make delta_stream_gen ~print:(fun (seed, steps) ->
         Printf.sprintf "seed=%d steps=%d" seed steps))
    (fun (seed, steps) ->
      let rng = Mcss_prng.Rng.create (seed + 7) in
      let w =
        ref (Helpers.random_workload rng ~num_topics:12 ~num_subscribers:15 ~max_rate:20
               ~max_interests:4)
      in
      let problem w = Problem.create ~workload:w ~tau:30. ~capacity:200. Problem.unit_costs in
      let eng = surgery_engine (problem !w) in
      for _ = 1 to steps do
        let delta = random_delta rng !w in
        w := Delta.apply !w [ delta ];
        ignore (Engine.retarget eng (problem !w))
      done;
      let cold = Mcss_core.Solver.solve (problem !w) in
      Engine.cost eng <= (2. *. cold.Mcss_core.Solver.cost) +. 1e-9)

let prop_reprovision_idempotent =
  Helpers.qtest ~count:40 "a second reprovision against the same problem is a no-op"
    Helpers.problem_arbitrary (fun p ->
      let eng = surgery_engine p in
      ignore (Engine.retarget eng p);
      let cost1 = Engine.cost eng in
      let stats = Engine.retarget eng p in
      stats.Engine.pairs_added = 0
      && stats.Engine.pairs_removed = 0
      && stats.Engine.pairs_evicted = 0
      && Float.abs (Engine.cost eng -. cost1) < 1e-9)

let test_consolidate_drains_fragmented_fleet () =
  (* Hand-build a fragmented plan: three half-empty VMs that fit in two. *)
  let w =
    Helpers.workload ~rates:[ 10.; 10.; 10. ] ~interests:[ [ 0 ]; [ 1 ]; [ 2 ] ]
  in
  let p = problem_for w in
  (* capacity 120: each single-pair VM carries 20. *)
  let a = Allocation.create ~capacity:120. in
  List.iteri
    (fun i topic ->
      let vm = Allocation.deploy a in
      Allocation.place a vm ~topic ~ev:10. ~subscribers:[| i |] ~from:0 ~count:1)
    [ 0; 1; 2 ];
  let selection = Mcss_core.Selection.gsp p in
  let eng = Engine.of_plan { Engine.problem = p; selection; allocation = a } in
  let stats = Engine.consolidate eng in
  Helpers.check_bool "fewer VMs" true (Engine.num_vms eng < 3);
  Helpers.check_bool "drained counted" true (stats.Engine.vms_removed >= 1);
  Helpers.check_bool "moves counted" true (stats.Engine.pairs_evicted >= 1);
  Helpers.check_bool "still valid" true (valid eng);
  (* The adopted plan was not mutated. *)
  Helpers.check_int "input untouched" 3 (Allocation.num_vms a)

let test_consolidate_respects_move_budget () =
  let w =
    Helpers.workload ~rates:[ 10.; 10.; 10. ] ~interests:[ [ 0 ]; [ 1 ]; [ 2 ] ]
  in
  let p = problem_for w in
  let a = Allocation.create ~capacity:120. in
  List.iteri
    (fun i topic ->
      let vm = Allocation.deploy a in
      Allocation.place a vm ~topic ~ev:10. ~subscribers:[| i |] ~from:0 ~count:1)
    [ 0; 1; 2 ];
  let selection = Mcss_core.Selection.gsp p in
  let eng = Engine.of_plan { Engine.problem = p; selection; allocation = a } in
  let stats = Engine.consolidate ~max_moves:0 eng in
  Helpers.check_int "nothing moved" 0 stats.Engine.pairs_evicted;
  Helpers.check_int "fleet kept" 3 (Engine.num_vms eng)

let prop_consolidate_preserves_validity =
  Helpers.qtest ~count:50 "consolidation keeps plans valid and never grows the fleet"
    Helpers.problem_arbitrary (fun p ->
      let eng = Engine.create p in
      let before = Engine.num_vms eng in
      ignore (Engine.consolidate eng);
      valid eng && Engine.num_vms eng <= before)

let test_solution_stats () =
  let module S = Mcss_core.Solution_stats in
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Mcss_core.Solver.solve p in
  let s = S.compute p r.Mcss_core.Solver.allocation in
  Helpers.check_int "vms" 3 s.S.num_vms;
  Helpers.check_int "topics placed" 2 s.S.topics_placed;
  (* Topic 0's two pairs cannot share a VM at BC=50: it must be split. *)
  Helpers.check_int "topics split" 1 s.S.topics_split;
  Helpers.check_int "worst spread" 2 s.S.max_topic_spread;
  Helpers.check_float "overhead = one extra t0 stream" 20. s.S.incoming_overhead;
  Helpers.check_bool "utilizations bounded" true
    (s.S.max_utilization <= 1. +. 1e-9 && s.S.min_utilization >= 0.);
  let rendered = Format.asprintf "%a" S.pp s in
  Helpers.check_bool "renders" true (Helpers.contains ~needle:"3 VMs" rendered)

let test_solution_stats_empty_fleet () =
  let module S = Mcss_core.Solution_stats in
  let p = Helpers.fig1_problem () in
  let s = S.compute p (Allocation.create ~capacity:50.) in
  Helpers.check_int "no vms" 0 s.S.num_vms;
  Helpers.check_float "no overhead" 0. s.S.overhead_fraction

let suite =
  [
    Alcotest.test_case "apply subscribe" `Quick test_apply_subscribe;
    Alcotest.test_case "apply unsubscribe" `Quick test_apply_unsubscribe;
    Alcotest.test_case "apply rate change" `Quick test_apply_rate_change;
    Alcotest.test_case "apply new topic/subscriber" `Quick test_apply_new_topic_and_subscriber;
    Alcotest.test_case "apply order sensitive" `Quick test_apply_order_sensitive;
    Alcotest.test_case "apply rejects" `Quick test_apply_rejects;
    Alcotest.test_case "delta pp" `Quick test_pp;
    Alcotest.test_case "no-op reprovision zero churn" `Quick test_noop_reprovision_zero_churn;
    Alcotest.test_case "subscribe reprovision" `Quick test_subscribe_reprovision;
    Alcotest.test_case "rate increase forces eviction" `Quick
      test_rate_increase_forces_eviction;
    Alcotest.test_case "unsubscribe shrinks fleet" `Quick test_unsubscribe_can_shrink_fleet;
    prop_reprovision_always_valid;
    prop_reprovision_cost_tracks_cold_solve;
    Alcotest.test_case "consolidate drains fragmented fleet" `Quick
      test_consolidate_drains_fragmented_fleet;
    Alcotest.test_case "consolidate respects move budget" `Quick
      test_consolidate_respects_move_budget;
    prop_consolidate_preserves_validity;
    prop_reprovision_idempotent;
    Alcotest.test_case "solution stats" `Quick test_solution_stats;
    Alcotest.test_case "solution stats empty fleet" `Quick test_solution_stats_empty_fleet;
  ]
