(* Tests for the publication schedule kernel and the discrete-event replay. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Solver = Mcss_core.Solver
module Schedule = Mcss_sim.Schedule
module Simulator = Mcss_sim.Simulator

(* Reference oracle for deterministic arrivals, independent of the
   kernel's heap: materialise every event in closed form, then sort by
   (time, topic). *)
let reference_schedule w ~duration =
  let times : float Mcss_core.Vec.t = Mcss_core.Vec.create () in
  let topics : int Mcss_core.Vec.t = Mcss_core.Vec.create () in
  for t = 0 to Workload.num_topics w - 1 do
    let ev = Workload.event_rate w t in
    let n = int_of_float (Float.round (ev *. duration)) in
    if n > 0 then begin
      let interval = duration /. float_of_int n in
      let phase = Schedule.phase_of_topic t *. interval in
      for k = 0 to n - 1 do
        Mcss_core.Vec.push times (phase +. (float_of_int k *. interval));
        Mcss_core.Vec.push topics t
      done
    end
  done;
  let n = Mcss_core.Vec.length times in
  let order = Array.init n (fun i -> i) in
  let times = Mcss_core.Vec.to_array times in
  let topics = Mcss_core.Vec.to_array topics in
  Array.sort (fun a b -> compare (times.(a), topics.(a)) (times.(b), topics.(b))) order;
  Array.map (fun i -> (times.(i), topics.(i))) order

let stream w arrivals ~duration =
  Schedule.to_array (Schedule.create ~context:"test" w arrivals ~duration)

let prop_deterministic_matches_oracle =
  Helpers.qtest "deterministic stream equals the sorted oracle"
    QCheck.(pair Helpers.problem_arbitrary (float_range 0.05 4.))
    (fun (p, duration) ->
      let w = p.Problem.workload in
      let events = stream w Schedule.Deterministic ~duration in
      let per_topic = Array.make (Workload.num_topics w) 0 in
      Array.iter (fun (_, t) -> per_topic.(t) <- per_topic.(t) + 1) events;
      let expected t = int_of_float (Float.round (Workload.event_rate w t *. duration)) in
      events = reference_schedule w ~duration
      && per_topic = Array.init (Workload.num_topics w) expected)

let prop_stochastic_ordered_and_reproducible =
  Helpers.qtest "poisson/diurnal streams ordered and reproducible"
    QCheck.(
      quad Helpers.problem_arbitrary (float_range 0.05 2.) small_nat
        (option (float_bound_exclusive 1.)))
    (fun (p, duration, seed, amplitude) ->
      let w = p.Problem.workload in
      let arrivals =
        match amplitude with
        | None -> Schedule.Poisson seed
        | Some amplitude -> Schedule.Diurnal { seed; amplitude }
      in
      let events = stream w arrivals ~duration in
      let ordered = ref true in
      Array.iteri
        (fun i (time, t) ->
          if time < 0. || time >= duration then ordered := false;
          if i > 0 && compare events.(i - 1) (time, t) > 0 then ordered := false)
        events;
      !ordered && events = stream w arrivals ~duration)

let solved_fig1 () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  (p, r)

let test_deterministic_matches_analytical () =
  let p, r = solved_fig1 () in
  let res = Simulator.run p r.Solver.allocation Simulator.default_config in
  (* 30 events per horizon get published (20 + 10). *)
  Helpers.check_int "published" 30 res.Simulator.events_published;
  let c = Simulator.check p r.Solver.allocation res ~tolerance:0. in
  Helpers.check_bool "exact agreement" true (Simulator.all_ok c);
  (* Total measured traffic equals the analytical objective exactly. *)
  let measured =
    Array.to_list (Allocation.vms r.Solver.allocation)
    |> List.map (fun vm -> Simulator.total_vm_traffic res ~vm:(Allocation.vm_id vm))
    |> List.fold_left ( + ) 0
  in
  Helpers.check_int "traffic = bw" (int_of_float r.Solver.bandwidth) measured

let test_delivered_counts () =
  let p, r = solved_fig1 () in
  let res = Simulator.run p r.Solver.allocation Simulator.default_config in
  (* v0 and v1 receive both topics: 30 events; v2 only t1: 10. *)
  Alcotest.(check (array int)) "delivered" [| 30; 30; 10 |] res.Simulator.delivered

let test_poisson_within_tolerance () =
  let p, r = solved_fig1 () in
  let config = { Simulator.default_config with Simulator.arrivals = Simulator.Poisson 7 } in
  let res = Simulator.run p r.Solver.allocation config in
  Helpers.check_bool "some events" true (res.Simulator.events_published > 0);
  let c = Simulator.check p r.Solver.allocation res ~tolerance:0.5 in
  Helpers.check_bool "within tolerance" true (Simulator.all_ok c)

let test_poisson_reproducible () =
  let p, r = solved_fig1 () in
  let config = { Simulator.default_config with Simulator.arrivals = Simulator.Poisson 7 } in
  let a = Simulator.run p r.Solver.allocation config in
  let b = Simulator.run p r.Solver.allocation config in
  Helpers.check_int "same event count" a.Simulator.events_published b.Simulator.events_published;
  Alcotest.(check (array int)) "same deliveries" a.Simulator.delivered b.Simulator.delivered

let test_missing_pairs_detected () =
  let p, _r = solved_fig1 () in
  (* Replay against an empty fleet: nothing is delivered. *)
  let empty = Allocation.create ~capacity:50. in
  let res = Simulator.run p empty Simulator.default_config in
  Helpers.check_int "nothing delivered to v0" 0 res.Simulator.delivered.(0);
  let c = Simulator.check p empty res ~tolerance:0. in
  Helpers.check_bool "every subscriber flagged" true
    (List.length c.Simulator.unsatisfied = 3);
  (* A half-populated fleet (only topic 1 hosted) satisfies only v2. *)
  let half = Allocation.create ~capacity:50. in
  let b = Allocation.deploy half in
  Allocation.place half b ~topic:1 ~ev:10. ~subscribers:[| 0; 1; 2 |] ~from:0 ~count:3;
  let res2 = Simulator.run p half Simulator.default_config in
  let c2 = Simulator.check p half res2 ~tolerance:0. in
  Helpers.check_int "v0 and v1 under-delivered" 2 (List.length c2.Simulator.unsatisfied)

let test_scaled_duration () =
  let p, r = solved_fig1 () in
  let config = { Simulator.default_config with Simulator.duration = 0.5 } in
  let res = Simulator.run p r.Solver.allocation config in
  Helpers.check_int "half the events" 15 res.Simulator.events_published

let test_bucket_metering () =
  let p, r = solved_fig1 () in
  let res = Simulator.run p r.Solver.allocation Simulator.default_config in
  Array.iter
    (fun vm ->
      let b = Allocation.vm_id vm in
      let total_from_buckets =
        Array.fold_left ( +. ) 0. res.Simulator.vm_bucket_load.(b)
      in
      Helpers.check_float "buckets sum to traffic"
        (float_of_int (Simulator.total_vm_traffic res ~vm:b))
        total_from_buckets;
      Helpers.check_bool "peak >= average" true
        (Simulator.peak_bucket_rate res ~vm:b
        >= float_of_int (Simulator.total_vm_traffic res ~vm:b) -. 1e-9))
    (Allocation.vms r.Solver.allocation)

let test_diurnal_mean_preserved () =
  let p, r = solved_fig1 () in
  let config =
    { Simulator.default_config with
      Simulator.arrivals = Simulator.Diurnal { seed = 3; amplitude = 0.8 } }
  in
  let res = Simulator.run p r.Solver.allocation config in
  (* Unit-mean modulation: totals stay near the model over a horizon. *)
  let c = Simulator.check p r.Solver.allocation res ~tolerance:0.5 in
  Helpers.check_bool "within tolerance" true (Simulator.all_ok c);
  (* Determinism. *)
  let res2 = Simulator.run p r.Solver.allocation config in
  Helpers.check_int "reproducible" res.Simulator.events_published
    res2.Simulator.events_published

let test_diurnal_peaks_exceed_average () =
  (* A heavily loaded single-VM fleet with strong diurnality: the busiest
     bucket must carry visibly more than the average bucket. *)
  let w = Helpers.workload ~rates:[ 2000. ] ~interests:[ [ 0 ] ] in
  let p = Mcss_core.Problem.create ~workload:w ~tau:2000. ~capacity:5000.
      Mcss_core.Problem.unit_costs in
  let r = Solver.solve p in
  let run amplitude =
    let config =
      { Simulator.default_config with
        Simulator.arrivals = Simulator.Diurnal { seed = 5; amplitude } }
    in
    let res = Simulator.run p r.Solver.allocation config in
    Simulator.peak_bucket_rate res ~vm:0
  in
  Helpers.check_bool "amplitude raises the peak" true (run 0.9 > run 0.0)

let test_diurnal_validation () =
  let p, r = solved_fig1 () in
  Alcotest.check_raises "amplitude"
    (Invalid_argument "Simulator.run: diurnal amplitude must be in [0, 1)") (fun () ->
      ignore
        (Simulator.run p r.Solver.allocation
           { Simulator.default_config with
             Simulator.arrivals = Simulator.Diurnal { seed = 1; amplitude = 1.5 } }))

let test_config_validation () =
  let p, r = solved_fig1 () in
  Alcotest.check_raises "duration" (Invalid_argument "Simulator.run: duration must be positive")
    (fun () ->
      ignore
        (Simulator.run p r.Solver.allocation
           { Simulator.default_config with Simulator.duration = 0. }));
  Alcotest.check_raises "buckets" (Invalid_argument "Simulator.run: buckets must be >= 1")
    (fun () ->
      ignore
        (Simulator.run p r.Solver.allocation
           { Simulator.default_config with Simulator.buckets = 0 }))

let prop_deterministic_sim_validates_solver =
  Helpers.qtest ~count:60 "deterministic replay agrees exactly with the optimiser"
    Helpers.problem_arbitrary (fun p ->
      let r = Solver.solve p in
      let res =
        Simulator.run p r.Solver.allocation Simulator.default_config
      in
      Simulator.all_ok (Simulator.check p r.Solver.allocation res ~tolerance:0.))

let suite =
  [
    prop_deterministic_matches_oracle;
    prop_stochastic_ordered_and_reproducible;
    Alcotest.test_case "deterministic matches analytical" `Quick
      test_deterministic_matches_analytical;
    Alcotest.test_case "delivered counts" `Quick test_delivered_counts;
    Alcotest.test_case "poisson within tolerance" `Quick test_poisson_within_tolerance;
    Alcotest.test_case "poisson reproducible" `Quick test_poisson_reproducible;
    Alcotest.test_case "missing pairs detected" `Quick test_missing_pairs_detected;
    Alcotest.test_case "scaled duration" `Quick test_scaled_duration;
    Alcotest.test_case "bucket metering" `Quick test_bucket_metering;
    Alcotest.test_case "diurnal mean preserved" `Quick test_diurnal_mean_preserved;
    Alcotest.test_case "diurnal peaks exceed average" `Quick test_diurnal_peaks_exceed_average;
    Alcotest.test_case "diurnal validation" `Quick test_diurnal_validation;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    prop_deterministic_sim_validates_solver;
  ]
