(* replay-twitter: plan validation at Twitter scale 0.001. The plans are
   solved in set-up; one operation is a deterministic Simulator pass with
   its zero-tolerance check, then a broker Fleet built and run over the
   same plan, so each operation is Simulator and Fleet work only. *)

module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Lower_bound = Mcss_core.Lower_bound
module Plan_io = Mcss_core.Plan_io
module Simulator = Mcss_sim.Simulator
module Fleet = Mcss_broker.Fleet
module Registry = Mcss_obs.Registry
module Span = Mcss_obs.Span
module Counter = Mcss_obs.Metric.Counter
open Harness

type stage = { stage : 'a. string -> (unit -> 'a) -> 'a }

let name = "replay-twitter"
let default_scale = 0.001
let traces = 9
let message_bytes = 512

type env = {
  seed : int;
  p : Problem.t;
  allocation : Allocation.t;
  cost : float;
  lb : Lower_bound.t;
  plan_gate : Gates.outcome;
  digest : string;
  solve_counts : (string * float) list;
}

let setup ctx ~scale ~next_seed _ =
  let tr = ctx.trace in
  let obs = if traced ctx then Registry.create () else Registry.noop in
  Trace.op tr "setup" (fun () ->
      let seed, p = feasible_trace ctx ~next_seed `Twitter ~scale ~bc_events:None in
      let r = plan_layers tr obs p in
      let lb = Trace.span tr "lower_bound.compute" (fun () -> Lower_bound.compute p) in
      let text = Trace.span tr "plan_io.to_string" (fun () -> Plan_io.to_string r.allocation) in
      {
        seed;
        p;
        allocation = r.allocation;
        cost = r.cost;
        lb;
        plan_gate = Gates.plan_clean r.report;
        digest = Digest.to_hex (Digest.string text);
        solve_counts = ("plan_io.bytes", float_of_int (String.length text)) :: plan_counts obs r;
      })

let run ctx =
  let scale = Option.value ctx.scale ~default:default_scale in
  let tr = ctx.trace and off = Trace.create false in
  let envs, setup_s = setups ctx ~traces (setup ctx ~scale) in
  let tally = Gates.Tally.create () in
  Array.iter
    (fun env ->
      Gates.Tally.record tally env.plan_gate;
      Gates.Tally.record tally (stable_digest ctx ~workload:name ~seed:env.seed env.digest))
    envs;
  let obs = Registry.create () in
  let counts = ref [] in
  let samples =
    op_rounds ~traces ~seconds:ctx.seconds ~min_rounds:(if traced ctx then 2 else 1)
      (fun ~round ~part k ->
        let env = envs.(k) in
        let traced_op = traced ctx && round mod 2 = 0 in
        let t = if traced_op then tr else off in
        let obs' = if traced_op then obs else Registry.noop in
        Registry.reset obs;
        let fleet_config = { Fleet.default_config with latency_seed = env.seed } in
        let pass { stage } =
          let sim =
            stage "sim.run" (fun () ->
                Simulator.run ~obs:obs' env.p env.allocation Simulator.default_config)
          in
          let check =
            stage "sim.check" (fun () -> Simulator.check env.p env.allocation sim ~tolerance:0.)
          in
          let fleet = stage "fleet.build" (fun () -> Fleet.build env.p env.allocation ~message_bytes) in
          let report = stage "fleet.run" (fun () -> Fleet.run ~obs:obs' fleet fleet_config) in
          (sim, check, report)
        in
        (* An untraced pass times each stage as its own part; a traced one
           is one part, its stages spans. *)
        let sim, check, fleet =
          if traced_op then
            part.part (fun () ->
                Trace.op t "op" (fun () -> pass { stage = (fun name f -> Trace.span t name f) }))
          else pass { stage = (fun _ f -> part.part f) }
        in
        Gates.Tally.record tally
          (match Gates.sim_check check with
          | Error _ as e -> e
          | Ok () -> Gates.totals_agree ~sim:sim.Simulator.totals ~fleet:fleet.Fleet.totals);
        if traced_op then
          counts :=
            [
              ( "fleet.schedule_s",
                Option.fold ~none:0. ~some:Span.seconds (Span.find (Span.roots obs) "schedule") );
              ("sim.events_published", float_of_int sim.Simulator.events_published);
              ("sim.heap_pops", float_of_int (Counter.value (Registry.counter obs "sim.heap_pops")));
              ("sim.delivered", float_of_int sim.Simulator.totals.Mcss_report.Delivery.delivered);
              ("fleet.deliveries", float_of_int fleet.Fleet.deliveries);
            ]
            @ !counts)
  in
  let walls = List.map (fun ((_, k), w) -> (k, w)) samples in
  let traced_walls, untraced_walls =
    List.partition_map
      (fun ((round, k), w) -> if round mod 2 = 0 then Left (k, w) else Right (k, w))
      samples
  in
  let op_p50 = 1000. *. per_trace 0.5 walls in
  let lb = mean (Array.map (fun e -> e.lb.Lower_bound.cost) envs) in
  let lines =
    [
      line "replay_s (median)" (op_p50 /. 1000.) "s";
      line "operations" (float_of_int (List.length walls)) "count";
      "operation seconds (reference speed) "
      ^ String.concat " " (List.map (fun (_, w) -> Printf.sprintf "%.3f" w) walls);
      line "lower_bound.usd (mean)" lb "USD";
      skipped_line ();
      calib_line ();
      "plan digests " ^ String.concat " " (Array.to_list (Array.map (fun e -> e.digest) envs));
    ]
  in
  let values =
    if traced ctx then
      let spans = Trace.spans tr in
      per_layer_values spans
        (medians (!counts @ List.concat_map (fun e -> e.solve_counts) (Array.to_list envs))
        @ [
            ("traces.pairs_per_s", pairs_per_s spans);
            ("lower_bound.usd", lb);
            ("obs.trace_overhead_frac", overhead ~traced:traced_walls ~untraced:untraced_walls);
          ])
    else
      [
        value "setup_s" setup_s;
        value "peak_rss_mb" (own_peak_rss_mb ());
        value "plan_cost_usd" (mean (Array.map (fun e -> e.cost) envs));
        value "op_p50_ms" op_p50;
        value "op_tail_ms" op_p50;
      ]
  in
  { tally; values; lines; spans = Trace.spans tr }
