(* plan-spotify: cold planning at Spotify scale 0.05. One operation is a
   cold GSP+CBP(e) solve on one domain followed by a full verification,
   so Selection, Cbp and Verifier do almost all the work. *)

module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver
module Verifier = Mcss_core.Verifier
module Lower_bound = Mcss_core.Lower_bound
module Plan_io = Mcss_core.Plan_io
module Registry = Mcss_obs.Registry
open Harness

let name = "plan-spotify"
let default_scale = 0.05
let traces = 3

type env = { seed : int; p : Problem.t; lb : Lower_bound.t }

let setup ctx ~scale ~next_seed _ =
  let tr = ctx.trace in
  Trace.op tr "setup" (fun () ->
      let seed, p = feasible_trace ctx ~next_seed `Spotify ~scale ~bc_events:None in
      let lb = Trace.span tr "lower_bound.compute" (fun () -> Lower_bound.compute p) in
      { seed; p; lb })

(* The operation as a user runs it. *)
let plan p =
  let r = Solver.solve ~config:Solver.default ~domains:1 p in
  {
    selection = r.Solver.selection;
    allocation = r.Solver.allocation;
    report = Verifier.verify p r.Solver.selection r.Solver.allocation;
    cost = r.Solver.cost;
  }

let run ctx =
  let scale = Option.value ctx.scale ~default:default_scale in
  let tr = ctx.trace and off = Trace.create false in
  let envs, setup_s = setups ctx ~traces (setup ctx ~scale) in
  let tally = Gates.Tally.create () in
  let obs = Registry.create () in
  let costs = Array.make traces nan and digests = Array.make traces "" in
  let counts = ref [] in
  (* A traced run traces every other round; the untraced rounds give the
     tracing overhead. *)
  let samples =
    op_rounds ~traces ~seconds:ctx.seconds ~min_rounds:(if traced ctx then 2 else 1)
      (fun ~round ~part k ->
        let env = envs.(k) in
        let traced_op = traced ctx && round mod 2 = 0 in
        let t = if traced_op then tr else off in
        Registry.reset obs;
        let r =
          part.part (fun () ->
              if traced_op then Trace.op t "op" (fun () -> plan_layers t obs env.p)
              else plan env.p)
        in
        costs.(k) <- r.cost;
        let text =
          Trace.op t "gate" (fun () ->
              Trace.span t "plan_io.to_string" (fun () -> Plan_io.to_string r.allocation))
        in
        let d = Digest.to_hex (Digest.string text) in
        Gates.Tally.record tally (Gates.plan_clean r.report);
        Gates.Tally.record tally
          (if round = 0 then (
             digests.(k) <- d;
             stable_digest ctx ~workload:name ~seed:env.seed d)
           else Gates.same_digest ~what:"plan (repeat)" ~expected:digests.(k) d);
        if traced_op then
          counts :=
            (("plan_io.bytes", float_of_int (String.length text)) :: plan_counts obs r) @ !counts)
  in
  let walls = List.map (fun ((_, k), w) -> (k, w)) samples in
  let traced_walls, untraced_walls =
    List.partition_map
      (fun ((round, k), w) -> if round mod 2 = 0 then Left (k, w) else Right (k, w))
      samples
  in
  let op_p50 = 1000. *. per_trace 0.5 walls in
  let lines =
    [
      line "plan_s (median)" (op_p50 /. 1000.) "s";
      line "operations" (float_of_int (List.length walls)) "count";
      "operation seconds (reference speed) "
      ^ String.concat " " (List.map (fun (_, w) -> Printf.sprintf "%.3f" w) walls);
      line "lower_bound.usd (mean)" (mean (Array.map (fun e -> e.lb.Lower_bound.cost) envs)) "USD";
      skipped_line ();
      calib_line ();
      "plan digests " ^ String.concat " " (Array.to_list digests);
    ]
  in
  let values =
    if traced ctx then
      let spans = Trace.spans tr in
      per_layer_values spans
        (medians !counts
        @ [
            ("traces.pairs_per_s", pairs_per_s spans);
            ("lower_bound.usd", mean (Array.map (fun e -> e.lb.Lower_bound.cost) envs));
            ("obs.trace_overhead_frac", overhead ~traced:traced_walls ~untraced:untraced_walls);
          ])
    else
      [
        value "setup_s" setup_s;
        value "peak_rss_mb" (own_peak_rss_mb ());
        value "plan_cost_usd" (mean costs);
        value "op_p50_ms" op_p50;
        value "op_tail_ms" op_p50;
      ]
  in
  { tally; values; lines; spans = Trace.spans tr }
