(* The benchmark's own tests: each correctness gate rejects a broken
   output, and every metric BENCHMARK.json declares is emitted, with its
   unit, by every workload. Workloads run at toy scale. *)

open Perfbench
module Front = Mcss_front.Front
module Solver = Mcss_core.Solver
module Verifier = Mcss_core.Verifier
module Plan_io = Mcss_core.Plan_io
module Simulator = Mcss_sim.Simulator
module Fleet = Mcss_broker.Fleet
module Json = Mcss_serve.Json

let toy_problem () =
  let scale = 0.001 in
  let w = Front.generate ~seed:7 `Spotify ~scale in
  let _, p = Front.problem_of ~w ~tau:100. ~instance:Harness.instance ~scale ~bc_events:None in
  (w, p, Solver.solve p)

let is_error = function Error _ -> true | Ok () -> false

(* Drop the last subscriber of the first placement that has two or more. *)
let drop_one_pair text =
  let dropped = ref false in
  String.split_on_char '\n' text
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | "place" :: vm :: topic :: k :: subs when (not !dropped) && int_of_string k >= 2 ->
             dropped := true;
             let subs = List.filteri (fun i _ -> i < List.length subs - 1) subs in
             String.concat " " ("place" :: vm :: topic :: string_of_int (int_of_string k - 1) :: subs)
         | _ -> l)
  |> String.concat "\n"

let test_verifier_gate () =
  let w, p, r = toy_problem () in
  let clean = Verifier.verify p r.Solver.selection r.Solver.allocation in
  Alcotest.(check bool) "solved plan passes" false (is_error (Gates.plan_clean clean));
  let text = Plan_io.to_string r.Solver.allocation in
  let tampered, _ = Plan_io.of_string ~workload:w (drop_one_pair text) in
  let report = Verifier.verify p r.Solver.selection tampered in
  Alcotest.(check bool) "one dropped pair fails" true (is_error (Gates.plan_clean report))

let test_totals_gate () =
  let _, p, r = toy_problem () in
  let a = r.Solver.allocation in
  let sim = Simulator.run p a Simulator.default_config in
  let fleet = Fleet.run (Fleet.build p a ~message_bytes:512) Fleet.default_config in
  let check = Simulator.check p a sim ~tolerance:0. in
  Alcotest.(check bool) "simulator check passes" false (is_error (Gates.sim_check check));
  let sim_totals = sim.Simulator.totals and fleet = fleet.Fleet.totals in
  Alcotest.(check bool) "totals agree" false
    (is_error (Gates.totals_agree ~sim:sim_totals ~fleet));
  let tampered = { fleet with Mcss_report.Delivery.delivered = fleet.delivered + 1 } in
  Alcotest.(check bool) "tampered total fails" true
    (is_error (Gates.totals_agree ~sim:sim_totals ~fleet:tampered))

let reply fields = Json.Obj (("ok", Json.Bool true) :: fields)

let test_serve_gates () =
  let s k v = (k, Json.String v) in
  let update = reply [ s "digest" "b"; s "previous_digest" "a" ] in
  Alcotest.(check bool) "update on the sent head" true
    (Gates.update_reply ~sent_head:"a" update = Ok "b");
  Alcotest.(check bool) "update on another head fails" true
    (Result.is_error (Gates.update_reply ~sent_head:"c" update));
  Alcotest.(check bool) "refused update fails" true
    (Result.is_error
       (Gates.update_reply ~sent_head:"a" (Json.Obj [ ("ok", Json.Bool false) ])));
  let read cached = reply [ s "digest" "b"; ("cached", Json.Bool cached) ] in
  Alcotest.(check bool) "cached read passes" false (is_error (Gates.read_reply ~head:"b" (read true)));
  Alcotest.(check bool) "uncached read fails" true (is_error (Gates.read_reply ~head:"b" (read false)));
  Alcotest.(check bool) "read of another head fails" true
    (is_error (Gates.read_reply ~head:"c" (read true)))

(* ----- metric declarations ----- *)

let benchmark_json = "../../BENCHMARK.json"
let mcss = Filename.concat (Sys.getcwd ()) "../../bin/mcss_cli.exe"

let declared key =
  let text = In_channel.with_open_bin benchmark_json In_channel.input_all in
  let j = Result.get_ok (Json.parse text) in
  let field k m = Option.get (Option.bind (Json.member k m) Json.to_string_opt) in
  Option.get (Option.bind (Json.member key j) Json.to_list_opt)
  |> List.map (fun m -> (field "name" m, field "unit" m))

let test_declarations () =
  let pairs = List.map (fun (m : Metrics.decl) -> (m.name, m.unit)) in
  Alcotest.(check (list (pair string string)))
    "end-to-end" (declared "end_to_end") (pairs Metrics.end_to_end);
  Alcotest.(check (list (pair string string)))
    "per-layer" (declared "per_layer") (pairs Metrics.per_layer)

(* A part scales by the kernel passes on either side of it, an
   operation's parts add up, and operations come back in run order. *)
let test_at_reference () =
  let n = Calib.nominal_s in
  let tl = Harness.timeline () in
  List.iter
    (function
      | `K s -> Harness.kernel ~ref_s:s tl
      | `P (key, wall) -> Harness.record tl key wall)
    [
      `K n; `P ("first", 1.); `K n; `P ("second", 1.); `K (4. *. n); `P ("second", 2.);
      `K (4. *. n);
    ];
  (* second: 1 s at twice the kernel time plus 2 s at four times it *)
  Alcotest.(check (list (pair string (float 1e-9))))
    "scaled" [ ("first", 1.); ("second", 1.) ] (Harness.at_reference tl);
  Alcotest.(check (float 1e-9))
    "per-trace medians, averaged" 2.
    (Harness.per_trace 0.5 [ (0, 1.); (0, 2.); (0, 3.); (1, 1.); (2, 3.) ])

(* Scale and seconds: enough for a few operations of each kind. *)
let toy_runs =
  [
    ("plan-spotify", (0.001, 0.2));
    ("replay-twitter", (0.0005, 0.2));
    ("serve-update", (0.001, 1.5));
  ]

let run_toy name run ~traced =
  let out = Filename.temp_dir "perfbench" "" in
  let scale, seconds = List.assoc name toy_runs in
  let ctx =
    {
      Harness.seed = 3;
      seconds;
      trace = Trace.create traced;
      out_dir = out;
      mcss;
      scale = Some scale;
    }
  in
  let r = run ctx in
  let line =
    Metrics.result_line ~traced ~correct:true
      ~attempted:(Gates.Tally.attempted r.Harness.tally)
      ~failed:(Gates.Tally.failed r.Harness.tally)
      r.Harness.values
  in
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; out ]));
  (Result.get_ok (Json.parse line), r)

let test_emitted name run () =
  List.iter
    (fun traced ->
      let j, r = run_toy name run ~traced in
      Alcotest.(check (list string)) "no failed gate" [] (Gates.Tally.messages r.Harness.tally);
      let metrics = Option.get (Json.member "metrics" j) in
      List.iter
        (fun (metric, unit) ->
          match Json.member metric metrics with
          | None -> Alcotest.failf "%s: metric %s missing" name metric
          | Some m ->
              Alcotest.(check (option string))
                (name ^ " " ^ metric) (Some unit)
                (Option.bind (Json.member "unit" m) Json.to_string_opt))
        (declared (if traced then "per_layer" else "end_to_end")))
    [ false; true ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "perfbench"
    [
      ( "gates",
        [
          Alcotest.test_case "verifier gate rejects a dropped pair" `Quick test_verifier_gate;
          Alcotest.test_case "totals gate rejects a tampered total" `Quick test_totals_gate;
          Alcotest.test_case "serve reply gates" `Quick test_serve_gates;
        ] );
      ("timing", [ Alcotest.test_case "reference-speed scaling" `Quick test_at_reference ]);
      ( "metrics",
        Alcotest.test_case "BENCHMARK.json matches the declarations" `Quick test_declarations
        :: List.map
             (fun (name, run) ->
               Alcotest.test_case (name ^ " emits every metric") `Quick (test_emitted name run))
             [
               (Plan_spotify.name, Plan_spotify.run);
               (Replay_twitter.name, Replay_twitter.run);
               (Serve.name, Serve.run);
             ] );
    ]
