(* Tests for the message-level broker runtime. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Solver = Mcss_core.Solver
module Message = Mcss_broker.Message
module Broker = Mcss_broker.Broker
module Fleet = Mcss_broker.Fleet

let msg ?(size = 100) id topic time = Message.make ~id ~topic ~publish_time:time ~size_bytes:size

let test_message_validation () =
  Alcotest.check_raises "negative id" (Invalid_argument "Message.make: negative id")
    (fun () -> ignore (msg (-1) 0 0.));
  Alcotest.check_raises "negative size" (Invalid_argument "Message.make: negative size")
    (fun () -> ignore (Message.make ~id:0 ~topic:0 ~publish_time:0. ~size_bytes:(-1)));
  let a = msg 0 0 1. and b = msg 1 0 1. and c = msg 2 0 0.5 in
  Helpers.check_bool "time order" true (Message.compare_by_time c a < 0);
  Helpers.check_bool "id breaks ties" true (Message.compare_by_time a b < 0)

let test_broker_subscription_table () =
  let b = Broker.create ~id:3 ~bytes_per_horizon:1000. in
  Helpers.check_int "id" 3 (Broker.id b);
  Broker.subscribe b ~topic:1 ~subscriber:10;
  Broker.subscribe b ~topic:1 ~subscriber:11;
  Broker.subscribe b ~topic:2 ~subscriber:10;
  Helpers.check_int "pairs" 3 (Broker.num_pairs b);
  Helpers.check_bool "hosts 1" true (Broker.hosts b 1);
  Helpers.check_bool "not 5" false (Broker.hosts b 5);
  Alcotest.check_raises "duplicate pair"
    (Invalid_argument "Broker.subscribe: pair (1, 10) already on broker 3") (fun () ->
      Broker.subscribe b ~topic:1 ~subscriber:10)

let test_broker_delivery_and_accounting () =
  let b = Broker.create ~id:0 ~bytes_per_horizon:1000. in
  Broker.subscribe b ~topic:0 ~subscriber:5;
  Broker.subscribe b ~topic:0 ~subscriber:6;
  let deliveries = Broker.ingest b (msg 0 0 0.) in
  Helpers.check_int "two copies" 2 (List.length deliveries);
  List.iter
    (fun d ->
      (* 3 x 100 bytes of work at 1000 B/horizon = 0.3 horizons. *)
      Helpers.check_float "departure" 0.3 d.Broker.depart_time)
    deliveries;
  let s = Broker.stats b in
  Helpers.check_int "bytes in" 100 s.Broker.bytes_in;
  Helpers.check_int "bytes out" 200 s.Broker.bytes_out;
  Helpers.check_int "deliveries" 2 s.Broker.deliveries_out;
  Helpers.check_float "utilization" 0.3 (Broker.utilization b ~horizon:1.)

let test_broker_queueing_delay () =
  let b = Broker.create ~id:0 ~bytes_per_horizon:1000. in
  Broker.subscribe b ~topic:0 ~subscriber:1;
  (* Each message: 2 x 100 bytes = 0.2 horizons of work. Back-to-back
     arrivals at t=0 and t=0.05: the second queues behind the first. *)
  let d1 = List.hd (Broker.ingest b (msg 0 0 0.)) in
  let d2 = List.hd (Broker.ingest b (msg 1 0 0.05)) in
  Helpers.check_float "first departs after service" 0.2 d1.Broker.depart_time;
  Helpers.check_float "second waits in queue" 0.4 d2.Broker.depart_time;
  Helpers.check_float "max delay recorded" 0.35 (Broker.stats b).Broker.max_queue_delay

let test_broker_ignores_unsubscribed_topic () =
  let b = Broker.create ~id:0 ~bytes_per_horizon:1000. in
  Broker.subscribe b ~topic:0 ~subscriber:1;
  Helpers.check_int "no deliveries" 0 (List.length (Broker.ingest b (msg 0 7 0.)));
  Helpers.check_int "no work" 0 (Broker.stats b).Broker.bytes_in

let test_broker_rejects_time_travel () =
  let b = Broker.create ~id:0 ~bytes_per_horizon:1000. in
  ignore (Broker.ingest b (msg 0 0 0.5));
  Alcotest.check_raises "out of order"
    (Invalid_argument "Broker.ingest: messages must arrive in time order") (fun () ->
      ignore (Broker.ingest b (msg 1 0 0.4)))

let solved_fig1 () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  (p, r)

let test_fleet_matches_simulator_counts () =
  let p, r = solved_fig1 () in
  let fleet = Fleet.build p r.Solver.allocation ~message_bytes:1 in
  let report = Fleet.run fleet Fleet.default_config in
  (* Same schedule as the counting simulator (30 publications/horizon). *)
  Helpers.check_int "published" 30 report.Fleet.published;
  Alcotest.(check (array int)) "received like the simulator" [| 30; 30; 10 |]
    report.Fleet.received;
  (* Deliveries = selected pairs' traffic = 70 events of egress. *)
  Helpers.check_int "deliveries" 70 report.Fleet.deliveries;
  (* Bytes moved by brokers = analytical bandwidth (120 events x 1 B). *)
  let total_bytes =
    List.fold_left
      (fun acc (_, s) -> acc + s.Broker.bytes_in + s.Broker.bytes_out)
      0 report.Fleet.broker_stats
  in
  Helpers.check_int "traffic = objective" 120 total_bytes

let test_fleet_routing_table () =
  let p, r = solved_fig1 () in
  let fleet = Fleet.build p r.Solver.allocation ~message_bytes:1 in
  Helpers.check_int "three brokers" 3 (Fleet.num_brokers fleet);
  (* Every topic must be routable, and only to hosting brokers. *)
  for t = 0 to 1 do
    let brokers = Fleet.brokers_for_topic fleet t in
    Helpers.check_bool "routable" true (brokers <> [])
  done;
  (* Topic 0 is split (two pairs, one per VM); topic 1 lives on one VM. *)
  Helpers.check_int "t0 on two brokers" 2 (List.length (Fleet.brokers_for_topic fleet 0));
  Helpers.check_int "t1 on one broker" 1 (List.length (Fleet.brokers_for_topic fleet 1))

let test_fleet_latency_reflects_utilization () =
  let p, r = solved_fig1 () in
  (* A healthy-capacity fleet against a barely-provisioned one: same
     allocation, same traffic, but a 10x slower wire must show higher
     latency. The capacity is in the problem, so rebuild with a scaled
     problem but identical placements. *)
  let report_at ~capacity =
    let p' =
      Problem.create ~workload:p.Problem.workload ~tau:p.Problem.tau ~capacity
        Problem.unit_costs
    in
    let fleet = Fleet.build p' r.Solver.allocation ~message_bytes:1 in
    Fleet.run fleet Fleet.default_config
  in
  let fast = report_at ~capacity:500. in
  let slow = report_at ~capacity:50. in
  match (fast.Fleet.latency, slow.Fleet.latency) with
  | Some f, Some s ->
      Helpers.check_bool "slower wire, higher p99" true (s.Fleet.p99 > f.Fleet.p99);
      Helpers.check_bool "utilization higher too" true
        (slow.Fleet.max_utilization > fast.Fleet.max_utilization)
  | _ -> Alcotest.fail "expected latency summaries"

let test_fleet_poisson_reproducible () =
  let p, r = solved_fig1 () in
  let config = { Fleet.default_config with Fleet.arrivals = Fleet.Poisson 5 } in
  let run () = Fleet.run (Fleet.build p r.Solver.allocation ~message_bytes:1) config in
  let a = run () and b = run () in
  Helpers.check_int "same published" a.Fleet.published b.Fleet.published;
  Alcotest.(check (array int)) "same received" a.Fleet.received b.Fleet.received

let test_md1_formulas () =
  let module Q = Mcss_broker.Queueing in
  Helpers.check_float "no load waits nothing" 0. (Q.md1_mean_wait ~utilization:0. ~service_time:1.);
  (* rho = 0.5, s = 2: wait = 0.5*2 / (2*0.5) = 1; sojourn = 3. *)
  Helpers.check_float "wait" 1. (Q.md1_mean_wait ~utilization:0.5 ~service_time:2.);
  Helpers.check_float "sojourn" 3. (Q.md1_mean_sojourn ~utilization:0.5 ~service_time:2.);
  Helpers.check_float "mm1 envelope" 4. (Q.mm1_mean_sojourn ~utilization:0.5 ~service_time:2.);
  Alcotest.check_raises "rho >= 1" (Invalid_argument "Queueing: utilization must be in [0, 1)")
    (fun () -> ignore (Q.md1_mean_wait ~utilization:1. ~service_time:1.))

let test_broker_latency_matches_md1 () =
  (* One topic, one subscriber, Poisson arrivals: the broker is exactly
     an M/D/1 queue. ev = 4000 events/horizon; each message costs
     2 event-units of wire, BC = 16000 -> rho = 0.5,
     s = 2/16000 = 1.25e-4 horizons; theory says mean sojourn
     = s * (1 + rho/(2(1-rho))) = 1.875e-4. *)
  let module Q = Mcss_broker.Queueing in
  let w = Helpers.workload ~rates:[ 4000. ] ~interests:[ [ 0 ] ] in
  let p =
    Mcss_core.Problem.create ~workload:w ~tau:4000. ~capacity:16000.
      Mcss_core.Problem.unit_costs
  in
  let r = Solver.solve p in
  let fleet = Fleet.build p r.Solver.allocation ~message_bytes:1 in
  let config =
    { Fleet.default_config with Fleet.arrivals = Fleet.Poisson 123;
      latency_reservoir = 100_000 }
  in
  let report = Fleet.run fleet config in
  match report.Fleet.latency with
  | None -> Alcotest.fail "no latency measured"
  | Some l ->
      let service_time = 2. /. 16000. in
      let predicted = Q.md1_mean_sojourn ~utilization:0.5 ~service_time in
      let err = Float.abs (l.Fleet.mean -. predicted) /. predicted in
      if err > 0.15 then
        Alcotest.failf "measured mean %.3e vs M/D/1 %.3e (%.0f%% off)" l.Fleet.mean
          predicted (100. *. err);
      (* And safely below the M/M/1 envelope's tail behaviour. *)
      Helpers.check_bool "below the M/M/1 envelope" true
        (l.Fleet.mean < Q.mm1_mean_sojourn ~utilization:0.5 ~service_time *. 1.15)

(* Every arrival model, so the fleet and the simulator must draw the
   same stochastic stream under one seed, not merely the same counts. *)
let arrivals_arbitrary =
  QCheck.(
    make
      ~print:(function
        | Fleet.Deterministic -> "Deterministic"
        | Fleet.Poisson seed -> Printf.sprintf "Poisson %d" seed
        | Fleet.Diurnal { seed; amplitude } ->
            Printf.sprintf "Diurnal {seed = %d; amplitude = %g}" seed amplitude)
      Gen.(
        oneof
          [
            return Fleet.Deterministic;
            map (fun seed -> Fleet.Poisson seed) small_nat;
            map2
              (fun seed amplitude -> Fleet.Diurnal { seed; amplitude })
              small_nat (float_bound_exclusive 1.);
          ]))

let prop_fleet_agrees_with_simulator =
  Helpers.qtest ~count:40 "fleet traffic equals the counting simulator's"
    QCheck.(pair Helpers.problem_arbitrary arrivals_arbitrary)
    (fun (p, arrivals) ->
      let r = Solver.solve p in
      let fleet = Fleet.build p r.Solver.allocation ~message_bytes:1 in
      let report = Fleet.run fleet { Fleet.default_config with Fleet.arrivals } in
      let sim =
        Mcss_sim.Simulator.run p r.Solver.allocation
          { Mcss_sim.Simulator.default_config with Mcss_sim.Simulator.arrivals }
      in
      report.Fleet.received = sim.Mcss_sim.Simulator.delivered
      && report.Fleet.published = sim.Mcss_sim.Simulator.events_published)

let test_fleet_diurnal_validation () =
  let p, r = solved_fig1 () in
  Alcotest.check_raises "amplitude"
    (Invalid_argument "Fleet.run: diurnal amplitude must be in [0, 1)") (fun () ->
      ignore
        (Fleet.run
           (Fleet.build p r.Solver.allocation ~message_bytes:1)
           { Fleet.default_config with
             Fleet.arrivals = Fleet.Diurnal { seed = 1; amplitude = 1.5 } }))

let suite =
  [
    Alcotest.test_case "message validation" `Quick test_message_validation;
    Alcotest.test_case "broker subscription table" `Quick test_broker_subscription_table;
    Alcotest.test_case "broker delivery and accounting" `Quick
      test_broker_delivery_and_accounting;
    Alcotest.test_case "broker queueing delay" `Quick test_broker_queueing_delay;
    Alcotest.test_case "broker ignores unsubscribed" `Quick
      test_broker_ignores_unsubscribed_topic;
    Alcotest.test_case "broker rejects time travel" `Quick test_broker_rejects_time_travel;
    Alcotest.test_case "fleet matches simulator counts" `Quick
      test_fleet_matches_simulator_counts;
    Alcotest.test_case "fleet routing table" `Quick test_fleet_routing_table;
    Alcotest.test_case "fleet latency vs utilization" `Quick
      test_fleet_latency_reflects_utilization;
    Alcotest.test_case "fleet poisson reproducible" `Quick test_fleet_poisson_reproducible;
    Alcotest.test_case "fleet diurnal validation" `Quick test_fleet_diurnal_validation;
    Alcotest.test_case "md1 formulas" `Quick test_md1_formulas;
    Alcotest.test_case "broker latency matches M/D/1" `Quick test_broker_latency_matches_md1;
    prop_fleet_agrees_with_simulator;
  ]
