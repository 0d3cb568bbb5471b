(* The repository benchmark: one workload per invocation.

     bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
           [--mcss PATH] [--out DIR]

   Workloads: plan-spotify, replay-twitter, serve-update (see README.md).

   Prints human-readable result lines, then as its last line one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   of an untraced run, or the per-layer metrics of a traced one (whose
   spans also go to DIR/spans-WORKLOAD-SEED.jsonl). perfbench/run.py
   builds this program and the server and runs it from the repository
   root. *)

let workloads =
  [
    (Perfbench.Plan_spotify.name, Perfbench.Plan_spotify.run);
    (Perfbench.Replay_twitter.name, Perfbench.Replay_twitter.run);
    (Perfbench.Serve.name, Perfbench.Serve.run);
  ]

let usage () =
  prerr_endline
    "usage: bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--mcss PATH] \
     [--out DIR]";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref None and seed = ref 20130109 and seconds = ref 10. in
  let trace = ref false and mcss = ref "" and out = ref ".bench_out" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--mcss" :: v :: rest -> mcss := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match Option.bind !workload (fun w -> List.assoc_opt w workloads) with
    | Some run -> run
    | None -> usage ()
  in
  if !seconds <= 0. then usage ();
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let ctx =
    {
      Perfbench.Harness.seed = !seed;
      seconds = !seconds;
      trace = Perfbench.Trace.create !trace;
      out_dir = !out;
      mcss = !mcss;
      scale = None;
    }
  in
  let name = Option.get !workload in
  let report = run ctx in
  if !trace then
    Perfbench.Trace.write
      (Filename.concat !out (Printf.sprintf "spans-%s-%d.jsonl" name !seed))
      report.spans;
  let module T = Perfbench.Gates.Tally in
  List.iter prerr_endline (T.messages report.tally);
  Printf.printf "workload %s, seed %d, %s run\n" name !seed
    (if !trace then "traced" else "untraced");
  List.iter print_endline report.lines;
  List.iter
    (fun { Perfbench.Metrics.metric; v } ->
      Printf.printf "%-28s %14.6g %s\n" metric v (Perfbench.Metrics.unit_of metric))
    report.values;
  print_endline
    (Perfbench.Metrics.result_line ~traced:!trace
       ~correct:(T.failed report.tally = 0)
       ~attempted:(T.attempted report.tally) ~failed:(T.failed report.tally)
       report.values)
