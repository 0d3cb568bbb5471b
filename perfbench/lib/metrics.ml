type decl = { name : string; unit : string }

let d name unit = { name; unit }

let end_to_end =
  [
    d "setup_s" "s";
    d "peak_rss_mb" "MiB";
    d "plan_cost_usd" "USD";
    d "op_p50_ms" "ms";
    d "op_tail_ms" "ms";
  ]

let per_layer =
  [
    d "traces.generate_s" "s";
    d "traces.pairs_per_s" "1/s";
    d "selection.gsp_s" "s";
    d "selection.pairs_selected" "count";
    d "selection.eligible_set_ops" "count";
    d "selection.major_words" "words";
    d "cbp.run_s" "s";
    d "cbp.placements" "count";
    d "cbp.vms" "count";
    d "cbp.major_words" "words";
    d "verifier.verify_s" "s";
    d "lower_bound.compute_s" "s";
    d "lower_bound.usd" "USD";
    d "plan_io.of_string_s" "s";
    d "plan_io.to_string_s" "s";
    d "plan_io.bytes" "bytes";
    d "engine.of_plan_s" "s";
    d "engine.apply_s" "s";
    d "engine.dirty_subscribers" "count";
    d "engine.pairs_churned" "count";
    d "service.digest_s" "s";
    d "journal.append_s" "s";
    d "journal.bytes_per_update" "bytes";
    d "service.update_s" "s";
    d "service.read_s" "s";
    d "service.cache_hit_ratio" "ratio";
    d "client.update_s" "s";
    d "client.read_s" "s";
    d "transport.read_ms" "ms";
    d "sim.run_s" "s";
    d "sim.check_s" "s";
    d "sim.events_published" "count";
    d "sim.heap_pops" "count";
    d "sim.delivered" "count";
    d "fleet.schedule_s" "s";
    d "fleet.build_s" "s";
    d "fleet.run_s" "s";
    d "fleet.deliveries" "count";
    d "gen.read_lateness_p99_ms" "ms";
    d "op.wall_s" "s";
    d "op.uncovered_frac" "ratio";
    d "obs.trace_overhead_frac" "ratio";
  ]

type value = { metric : string; v : float }

let unit_of name =
  (List.find (fun m -> m.name = name) (end_to_end @ per_layer)).unit

let result_line ~traced ~correct ~attempted ~failed values =
  let decls = if traced then per_layer else end_to_end in
  List.iter
    (fun { metric; v } ->
      if not (List.exists (fun m -> m.name = metric) decls) then
        invalid_arg ("undeclared metric " ^ metric);
      if not (Float.is_finite v) then
        invalid_arg (Printf.sprintf "metric %s is not finite" metric))
    values;
  let fields =
    List.map
      (fun m ->
        match List.filter (fun x -> x.metric = m.name) values with
        | [ x ] ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name x.v m.unit
        | [] -> invalid_arg ("missing metric " ^ m.name)
        | _ -> invalid_arg ("duplicate metric " ^ m.name))
      decls
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)
