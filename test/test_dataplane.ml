(* Tests for the live dataplane: the wire codec, a broker fleet driven
   over real sockets, rehome set semantics, measured-vs-predicted
   reconciliation on a healthy fleet, the chaos kill / replan / recover
   arc, and the end-to-end scenario — live traffic concurrent with a
   plan change, with zero lost events. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Simulator = Mcss_sim.Simulator
module Engine = Mcss_engine.Engine
module Json = Mcss_serve.Json
module Wire = Mcss_dataplane.Wire
module Cluster = Mcss_dataplane.Cluster
module Control = Mcss_dataplane.Control
module Subscriber = Mcss_dataplane.Subscriber
module Pump = Mcss_dataplane.Pump

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- scratch directories for broker sockets ----- *)

let temp_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let d =
      Filename.concat base (Printf.sprintf "mcss-dp-%d-%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let rm_dir d =
  Array.iter (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
    (try Sys.readdir d with _ -> [||]);
  try Unix.rmdir d with _ -> ()

let with_fleet p a f =
  let dir = temp_dir () in
  let cluster = Cluster.boot ~dir ~message_bytes:100 p a in
  Fun.protect
    ~finally:(fun () ->
      Cluster.shutdown cluster;
      rm_dir dir)
    (fun () -> f cluster)

(* A deterministic instance big enough to need several VMs but small
   enough that a pump run is a few hundred events. *)
let fleet_problem () =
  let rng = Mcss_prng.Rng.create 11 in
  let p =
    Helpers.random_problem rng ~num_topics:10 ~num_subscribers:16 ~max_rate:20
      ~max_interests:3 ~tau:30. ~capacity:120.
  in
  let plan = Engine.plan (Engine.create p) in
  check_bool "fixture spans several VMs" true
    (Allocation.num_vms plan.Engine.allocation >= 2);
  (p, plan)

(* ----- wire codec ----- *)

let test_wire_roundtrip () =
  let events =
    [
      { Wire.topic = 3; seq = 0; pub_ns = 123_456_789 };
      { Wire.topic = 0; seq = 1; pub_ns = 42 };
    ]
  in
  (match Json.parse (String.trim (Wire.pub_line events)) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      check_bool "pub_line parses to pub_request" true (j = Wire.pub_request events);
      match Wire.events_of j with
      | Ok evs -> check_bool "pub round-trip" true (evs = events)
      | Error e -> Alcotest.fail e));
  let d = { Wire.topic = 5; seq = 7; pub_ns = 99; subscribers = [ 1; 4; 9 ] } in
  (match Json.parse (String.trim (Wire.delivery_line d)) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Wire.delivery_of j with
      | Ok d' -> check_bool "delivery round-trip" true (d = d')
      | Error e -> Alcotest.fail e));
  match Wire.events_of (Json.Obj [ ("e", Json.List [ Json.Int 3 ]) ]) with
  | Ok _ -> Alcotest.fail "accepted a malformed event"
  | Error _ -> ()

(* ----- control verbs against a live broker ----- *)

let test_rehome_set_semantics () =
  let p, plan = fleet_problem () in
  with_fleet p plan.Engine.allocation (fun cluster ->
      let addr =
        match Cluster.address cluster 0 with
        | Some a -> a
        | None -> Alcotest.fail "broker 0 missing"
      in
      (match Control.health addr with
      | Ok j ->
          check_bool "role is broker" true
            (Json.member "role" j = Some (Json.String "broker"))
      | Error e -> Alcotest.fail e);
      let field j k =
        Json.member k j |> Fun.flip Option.bind Json.to_int_opt
        |> Option.value ~default:(-1)
      in
      (* A pair the plan cannot have homed here: topic 0, subscriber 999. *)
      let fresh = [ (0, 999) ] in
      (match Control.rehome addr ~add:fresh ~remove:[] with
      | Ok j -> check_int "first add lands" 1 (field j "added")
      | Error e -> Alcotest.fail e);
      (match Control.rehome addr ~add:fresh ~remove:[] with
      | Ok j ->
          check_int "replayed add is a no-op" 1 (field j "already_present");
          check_int "replayed add adds nothing" 0 (field j "added")
      | Error e -> Alcotest.fail e);
      (match Control.rehome addr ~add:[] ~remove:fresh with
      | Ok j -> check_int "remove lands" 1 (field j "removed")
      | Error e -> Alcotest.fail e);
      (match Control.rehome addr ~add:[] ~remove:fresh with
      | Ok j ->
          check_int "replayed remove is a no-op" 1 (field j "absent");
          check_int "replayed remove removes nothing" 0 (field j "removed")
      | Error e -> Alcotest.fail e);
      (* Drain flips the flag and refuses further publications. *)
      (match Control.drain addr with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match Control.health addr with
      | Ok j ->
          check_bool "draining visible in health" true
            (Json.member "draining" j = Some (Json.Bool true))
      | Error e -> Alcotest.fail e);
      match Control.ledger addr with
      | Ok l -> check_bool "ledger reports draining" true l.Mcss_dataplane.Ledger.draining
      | Error e -> Alcotest.fail e)

(* ----- zero-fault reconciliation ----- *)

let test_reconcile_zero_fault () =
  let p, plan = fleet_problem () in
  with_fleet p plan.Engine.allocation (fun cluster ->
      let config = { Pump.default_config with tolerance = Some 0. } in
      let r = Pump.run ~config cluster p plan.Engine.allocation in
      check_bool "pump quiesced" true r.Pump.quiesced;
      check_int "no send failures" 0 r.Pump.publisher.Mcss_dataplane.Publisher.send_failures;
      check_int "no drops" 0 r.Pump.totals.Mcss_report.Delivery.dropped;
      match r.Pump.reconcile with
      | None -> Alcotest.fail "reconciliation did not run"
      | Some rc ->
          check_bool "healthy fleet matches the simulator exactly" true
            rc.Mcss_dataplane.Reconcile.pass;
          check_bool "deviation is zero" true
            (rc.Mcss_dataplane.Reconcile.max_deviation = 0.);
          check_int "every subscriber accounted for" 0
            (List.length rc.Mcss_dataplane.Reconcile.subscriber_mismatches))

(* ----- chaos kill, drop window, replan, recovery ----- *)

let test_kill_replan_recover () =
  let p, plan = fleet_problem () in
  with_fleet p plan.Engine.allocation (fun cluster ->
      let exact = { Pump.default_config with tolerance = Some 0. } in
      let a0 = plan.Engine.allocation in
      let before = Pump.run ~config:exact cluster p a0 in
      check_bool "healthy phase reconciles" true
        (match before.Pump.reconcile with
        | Some rc -> rc.Mcss_dataplane.Reconcile.pass
        | None -> false);
      (* Kill a broker that actually carries pairs. *)
      let victim =
        match
          List.find_opt (fun (id, _) -> Cluster.pairs_on cluster id > 0)
            (Cluster.live cluster)
        with
        | Some (id, _) -> id
        | None -> Alcotest.fail "no broker with pairs"
      in
      check_bool "kill lands" true (Cluster.kill cluster victim);
      check_bool "kill is not replayable" false (Cluster.kill cluster victim);
      (* Same schedule against the degraded fleet: a strict drop window. *)
      let outage = Pump.run cluster p a0 in
      check_bool "outage delivers strictly less" true
        (outage.Pump.totals.Mcss_report.Delivery.delivered
        < before.Pump.totals.Mcss_report.Delivery.delivered);
      (* Replan around the failure and converge the fleet onto it. *)
      let eng = Engine.of_plan ~drift_threshold:infinity plan in
      let rstats = Engine.fail eng ~failed:[ victim ] in
      check_bool "replan rehomed the orphans" true
        (rstats.Engine.pairs_rehomed > 0);
      let a1 = (Engine.plan eng).Engine.allocation in
      let stats = Cluster.apply_plan cluster a1 in
      check_bool "apply_plan clean" true (stats.Cluster.errors = []);
      check_bool "orphans re-homed onto the fleet" true
        (stats.Cluster.pairs_added > 0);
      (* Recovered fleet must reconcile exactly against the new plan. *)
      let after = Pump.run ~config:exact cluster p a1 in
      match after.Pump.reconcile with
      | None -> Alcotest.fail "reconciliation did not run"
      | Some rc ->
          check_bool "recovered fleet reconciles exactly" true
            rc.Mcss_dataplane.Reconcile.pass)

(* ----- the end-to-end scenario ----- *)

(* Rebuild [a] with every pair of [topic] homed on VM [to_vm] instead:
   the same pair set on different homes, i.e. a pure re-home delta. *)
let move_topic p a ~topic ~to_vm =
  let w = p.Problem.workload in
  let b = Allocation.create ~capacity:(Allocation.capacity a) in
  let vms = Allocation.vms a in
  let fresh = Array.map (fun _ -> Allocation.deploy b) vms in
  Array.iteri
    (fun i vm ->
      Allocation.iter_vm_pairs vm (fun t s ->
          let dest = if t = topic then fresh.(to_vm) else fresh.(i) in
          Allocation.place b dest ~topic:t ~ev:(Workload.event_rate w t)
            ~subscribers:[| s |] ~from:0 ~count:1))
    vms;
  b

let test_e2e_concurrent_rehome () =
  let p, plan = fleet_problem () in
  let a0 = plan.Engine.allocation in
  let w = p.Problem.workload in
  with_fleet p a0 (fun cluster ->
      let sinks =
        Subscriber.create ~num_subscribers:(Workload.num_subscribers w)
          ~latency_seed:7 ()
      in
      Fun.protect ~finally:(fun () -> Subscriber.close sinks) (fun () ->
          (match Subscriber.attach_cluster sinks cluster with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          (* Move every pair of some topic hosted on VM 0 over to VM 1,
             while the pump is publishing that topic. *)
          let topic =
            match Allocation.topics_on (Allocation.vms a0).(0) with
            | t :: _ -> t
            | [] -> Alcotest.fail "VM 0 hosts no topic"
          in
          let a1 = move_topic p a0 ~topic ~to_vm:1 in
          let duration = 2.0 in
          let config = { Pump.default_config with duration; pace = 0.25 } in
          let pump =
            Domain.spawn (fun () -> Pump.run ~config ~sinks cluster p a0)
          in
          Unix.sleepf 0.12;
          let stats = Cluster.apply_plan cluster a1 in
          check_bool "apply_plan clean" true (stats.Cluster.errors = []);
          check_int "no broker spawned for a pure re-home" 0 stats.Cluster.spawned;
          check_bool "the move added pairs" true (stats.Cluster.pairs_added > 0);
          check_bool "the move removed pairs" true (stats.Cluster.pairs_removed > 0);
          let r = Domain.join pump in
          check_bool "pump quiesced" true r.Pump.quiesced;
          check_int "no send failures" 0
            r.Pump.publisher.Mcss_dataplane.Publisher.send_failures;
          check_int "nothing unrouted" 0
            r.Pump.publisher.Mcss_dataplane.Publisher.unrouted;
          (* Zero loss: every subscriber got exactly what the simulator
             predicts for the plan — duplicates from the union-routing
             window are deduplicated, gaps would show up right here. *)
          let sim =
            Simulator.run p a0 { Simulator.default_config with duration }
          in
          let unique = r.Pump.unique in
          Array.iteri
            (fun v predicted ->
              check_int (Printf.sprintf "subscriber %d complete" v) predicted
                unique.(v))
            sim.Simulator.delivered;
          (* And the fleet has genuinely converged onto the new plan:
             a steady-state run reconciles exactly against it. *)
          let exact = { Pump.default_config with tolerance = Some 0. } in
          let steady = Pump.run ~config:exact cluster p a1 in
          match steady.Pump.reconcile with
          | None -> Alcotest.fail "reconciliation did not run"
          | Some rc ->
              check_bool "fleet converged onto the delta" true
                rc.Mcss_dataplane.Reconcile.pass))

let suite =
  [
    Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "rehome set semantics + drain" `Quick
      test_rehome_set_semantics;
    Alcotest.test_case "zero-fault reconciliation is exact" `Quick
      test_reconcile_zero_fault;
    Alcotest.test_case "kill, drop window, replan, recover" `Quick
      test_kill_replan_recover;
    Alcotest.test_case "e2e: concurrent re-home loses nothing" `Quick
      test_e2e_concurrent_rehome;
  ]
