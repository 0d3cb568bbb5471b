(* serve-update: a traffic mix against a separate
   [mcss serve] process (Unix socket, journal with fsync, default snapshot
   cadence, two connection workers) holding one Spotify 0.002 workload
   per trace of the run, as separate tenants.

   The generator is this process with two connections. The updater runs
   a paced closed loop of [update] requests, each carrying one
   pre-generated [Churn.tick] batch against its tenant's current head
   digest; the reader runs an open loop of [solve] requests for the
   heads at a fixed rate, each timed from when it was due. Both cycle
   through the tenants. The write path (Plan_io, Engine, digest, Journal)
   and the cached read path (Server, Json, Plan_cache) share one Service;
   the operation is the update. *)

module Front = Mcss_front.Front
module Wio = Mcss_workload.Wio
module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver
module Lower_bound = Mcss_core.Lower_bound
module Registry = Mcss_obs.Registry
module Plan_io = Mcss_core.Plan_io
module Engine = Mcss_engine.Engine
module Delta = Mcss_engine.Delta
module Delta_io = Mcss_engine.Delta_io
module Churn = Mcss_dynamic.Churn
module Rng = Mcss_prng.Rng
module Json = Mcss_serve.Json
module Client = Mcss_serve.Client
module Server = Mcss_serve.Server
module Service = Mcss_serve.Service
module Journal = Mcss_serve.Journal
module Plan_cache = Mcss_serve.Plan_cache
open Harness

let name = "serve-update"
let default_scale = 0.002
let traces = 3
let read_rate = 200.
let churn = Churn.scaled 0.05

(* The updater is a closed loop paced to at most [update_rate] requests
   a second, so the state the server accumulates (one workload and plan
   per update) grows the same way on every commit: a faster update path
   cannot make later snapshots bigger. At this rate a run of up to 30 s
   ends before the journal's first snapshot fold (256 records: two per
   update, two per tenant). *)
let update_rate = 4.

let ( // ) = Filename.concat

(* ----- the server process ----- *)

type server = { pid : int; sock : string; files : string list }

let live = ref []

let reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live;
  live := []

let () = at_exit kill_live

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())

let spawn ctx tag =
  let dir = ctx.out_dir // "run" in
  mkdir_p dir;
  let sock = dir // (tag ^ ".sock") and journal = dir // ("journal-" ^ tag) in
  rm_rf journal;
  rm_rf sock;
  let log = Unix.openfile (dir // (tag ^ ".log")) [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process ctx.mcss
      [|
        ctx.mcss; "serve"; "--listen"; "unix:" ^ sock; "--journal"; journal;
        "--serve-workers"; "2"; "--silent";
      |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  { pid; sock; files = [ sock; journal; dir // (tag ^ ".log") ] }

let connect srv =
  let give_up = now_s () +. 30. in
  let rec go () =
    match Client.connect (Server.Unix_socket srv.sock) with
    | Ok c -> c
    | Error m ->
        (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
        | 0, _ -> ()
        | _ -> failwith "mcss serve exited during start-up");
        if now_s () > give_up then failwith ("mcss serve never came up: " ^ m);
        Unix.sleepf 0.01;
        go ()
  in
  go ()

let stop srv conns =
  (match conns with
  | c :: _ -> ignore (Client.request c (Json.Obj [ ("req", Json.String "shutdown") ]))
  | [] -> ());
  List.iter Client.close conns;
  let give_up = now_s () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now_s () < give_up ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill srv.pid Sys.sigkill;
        reap srv.pid
    | _ -> ()
  in
  wait ();
  live := List.filter (( <> ) srv.pid) !live;
  List.iter rm_rf srv.files

let request conn fields =
  match Client.request conn (Json.Obj fields) with
  | Ok reply -> reply
  | Error m -> failwith ("mcss serve connection failed: " ^ m)

(* ----- requests ----- *)

(* The wire printer keeps 12 significant digits, so the capacity the
   server sees is this rounding of the implied-BC default; local
   re-computations use the same value. *)
let bc_events ~scale =
  float_of_string (Printf.sprintf "%.12g" (Front.bc_events ~scale instance))

let params ~bc =
  [
    ("tau", Json.Float tau);
    ("instance", Json.String instance.Mcss_pricing.Instance.name);
    ("bc_events", Json.Float bc);
  ]

let solve_req ~bc digest =
  ("req", Json.String "solve") :: ("digest", Json.String digest) :: params ~bc

let update_req ~bc digest deltas =
  ("req", Json.String "update") :: ("digest", Json.String digest)
  :: ("deltas", Json.String deltas) :: params ~bc

let load_req w = [ ("req", Json.String "load"); ("workload", Json.String (Wio.to_string w)) ]
let str key j = Option.bind (Json.member key j) Json.to_string_opt
let num key j = Option.bind (Json.member key j) Json.to_float_opt

(* ----- set-up: one tenant per trace ----- *)

type batch = { deltas : Delta.t list; text : string }

type tenant = {
  p : Problem.t;
  head0 : string;
  plan_digest0 : string;
  cost : float;
  batches : batch array;
  gates : Gates.outcome list;
}

let setup ctx conn ~scale ~bc ~updates ~next_seed _ =
  let tr = ctx.trace in
  Trace.op tr "setup" (fun () ->
      let seed, p = feasible_trace ctx ~next_seed `Spotify ~scale ~bc_events:(Some bc) in
      let w = p.Problem.workload in
      let loaded = request conn (load_req w) in
      let head0 = Option.value ~default:"" (str "digest" loaded) in
      let solved = request conn (solve_req ~bc head0) in
      let acc = ref [] in
      ignore
        (Churn.run (Rng.create (seed + 1)) churn ~ticks:updates w (fun _ deltas ->
             acc := { deltas; text = Delta_io.to_string deltas } :: !acc));
      let ok j = Json.member "ok" j = Some (Json.Bool true) in
      {
        p;
        head0;
        plan_digest0 = Option.value ~default:"" (str "plan_digest" solved);
        cost = Option.value ~default:nan (num "cost_usd" solved);
        batches = Array.of_list (List.rev !acc);
        gates =
          [
            (if ok loaded then
               Gates.same_digest ~what:"loaded workload"
                 ~expected:(Service.digest_of_workload w) head0
             else Error ("load refused: " ^ Json.to_string loaded));
            (if ok solved then Ok () else Error ("cold solve refused: " ^ Json.to_string solved));
          ];
      })

(* ----- the traced run's in-process mirror -----

   The same delta stream goes through an in-process Service, and each
   update's parts are re-timed on the same inputs, each in its own span. *)

type mstate = { mutable head : string; mutable p : Problem.t; mutable text : string }

type mirror = {
  svc : Service.t;
  wal : string;
  journal : Journal.t;
  states : mstate array;
  mutable bytes : float list;
  mutable counts : (string * float) list;
}

let mirror_dirs ctx = List.map (fun d -> ctx.out_dir // "run" // d) [ "journal-mirror"; "journal-parts" ]

let mirror_create ctx ~bc (tenants : tenant array) =
  let tr = ctx.trace in
  let mdir, pdir = match mirror_dirs ctx with [ m; p ] -> (m, p) | _ -> assert false in
  List.iter rm_rf [ mdir; pdir ];
  let svc =
    Service.create
      ~config:{ Service.default_config with journal = Some (Journal.default_config ~dir:mdir) }
      ()
  in
  let journal, _ = Journal.open_ (Journal.default_config ~dir:pdir) in
  let line fields = Service.handle_line svc (Json.to_string (Json.Obj fields)) in
  let obs = Registry.create () in
  let gates = ref [] and counts = ref [] in
  let states =
    Array.map
      (fun (t : tenant) ->
        Trace.op tr "mirror" (fun () ->
            let p = t.p in
            let loaded = line (load_req p.Problem.workload) in
            let solved = line (solve_req ~bc t.head0) in
            (* The server's cold solve, re-run through the library layers. *)
            Registry.reset obs;
            let r = plan_layers tr obs p in
            let lb = Trace.span tr "lower_bound.compute" (fun () -> Lower_bound.compute p) in
            let text = Plan_io.to_string r.allocation in
            gates :=
              !gates
              @ [
                  Gates.same_digest ~what:"in-process workload" ~expected:t.head0
                    (Option.value ~default:"" (str "digest" loaded));
                  Gates.same_digest ~what:"in-process cold plan" ~expected:t.plan_digest0
                    (Option.value ~default:"" (str "plan_digest" solved));
                  Gates.plan_clean r.report;
                  Gates.same_digest ~what:"library cold plan" ~expected:t.plan_digest0
                    (Digest.to_hex (Digest.string text));
                ];
            counts := (("lower_bound.usd", lb.Lower_bound.cost) :: plan_counts obs r) @ !counts;
            { head = t.head0; p; text }))
      tenants
  in
  ({ svc; wal = mdir // "wal.mcssj"; journal; states; bytes = []; counts = !counts }, !gates)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let mirror_update t m ~bc k (b : batch) ~head ~plan_digest =
  let s = m.states.(k) in
  let line fields = Service.handle_line m.svc (Json.to_string (Json.Obj fields)) in
  let wal0 = file_size m.wal in
  let reply = Trace.span t "service.update" (fun () -> line (update_req ~bc s.head b.text)) in
  let wal1 = file_size m.wal in
  (* A shrinking WAL means a snapshot fold, which this sample would miss. *)
  if wal1 > wal0 then m.bytes <- float_of_int (wal1 - wal0) :: m.bytes;
  let allocation, selection =
    Trace.span t "plan_io.of_string" (fun () -> Plan_io.of_string ~workload:s.p.Problem.workload s.text)
  in
  let eng =
    Trace.span t "engine.of_plan" (fun () ->
        Engine.of_plan ~config:Solver.default { Engine.problem = s.p; selection; allocation })
  in
  let stats = Trace.span t "engine.apply" (fun () -> Engine.apply eng b.deltas) in
  let text =
    Trace.span t "plan_io.to_string" (fun () ->
        Plan_io.to_string (Engine.plan eng).Engine.allocation)
  in
  let p = Engine.problem eng in
  let w = p.Problem.workload in
  let digest = Trace.span t "service.digest" (fun () -> Service.digest_of_workload w) in
  Trace.span t "journal.append" (fun () ->
      Journal.append m.journal (Wio.to_string w);
      Journal.append m.journal b.text);
  let read = Trace.span t "service.read" (fun () -> line (solve_req ~bc digest)) in
  m.counts <-
    [
      ("engine.dirty_subscribers", float_of_int stats.Engine.dirty_subscribers);
      ("engine.pairs_churned", float_of_int (Engine.churned_pairs eng));
      ("plan_io.bytes", float_of_int (String.length text));
    ]
    @ m.counts;
  s.head <- digest;
  s.p <- p;
  s.text <- text;
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  Gates.same_digest ~what:"in-process update" ~expected:head
    (Option.value ~default:"" (str "digest" reply))
  >>= fun () ->
  Gates.same_digest ~what:"re-timed workload" ~expected:head digest >>= fun () ->
  Gates.same_digest ~what:"re-timed plan" ~expected:plan_digest
    (Digest.to_hex (Digest.string text))
  >>= fun () -> Gates.read_reply ~head read

(* ----- the run ----- *)

type reads = {
  latency : float list;  (** From due time to reply, seconds. *)
  lateness : float list;  (** From due time to send, seconds. *)
  tally : Gates.Tally.t;
  recorder : Trace.t;
}

(* Even-numbered rounds through the tenants are traced in a traced run;
   the others give the tracing overhead. *)
let traced_round ctx i = traced ctx && i / traces mod 2 = 0

let reader ctx ~bc ~heads ~conn ~start ~deadline () =
  let recorder = Trace.create ~namespace:1 (traced ctx) and off = Trace.create false in
  let tally = Gates.Tally.create () in
  let period = 1. /. read_rate in
  let rec loop i (latency, lateness) =
    let due = start +. (float_of_int i *. period) in
    if due >= deadline then (latency, lateness)
    else (
      let wait = due -. now_s () in
      if wait > 0. then Unix.sleepf wait;
      let t = if traced_round ctx i then recorder else off in
      let k = i mod traces in
      let h = Atomic.get heads.(k) in
      let sent = now_s () in
      let reply =
        Trace.op t "read" (fun () ->
            Trace.span t "client.read" (fun () -> request conn (solve_req ~bc h)))
      in
      let got = now_s () in
      Gates.Tally.record tally (Gates.read_reply ~head:h reply);
      loop (i + 1) ((got -. due) :: latency, (sent -. due) :: lateness))
  in
  let latency, lateness = loop 0 ([], []) in
  { latency; lateness; tally; recorder }

let run ctx =
  let scale = Option.value ctx.scale ~default:default_scale in
  let tr = ctx.trace and off = Trace.create false in
  let bc = bc_events ~scale in
  let srv = spawn ctx (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  let conn = connect srv in
  let updates = 1 + int_of_float (update_rate *. ctx.seconds /. float_of_int traces) in
  let tenants, setup_s = setups ctx ~traces (setup ctx conn ~scale ~bc ~updates) in
  let tally = Gates.Tally.create () in
  Array.iter (fun (t : tenant) -> List.iter (Gates.Tally.record tally) t.gates) tenants;
  let mirror =
    if traced ctx then (
      let m, gates = mirror_create ctx ~bc tenants in
      List.iter (Gates.Tally.record tally) gates;
      Some m)
    else None
  in
  let read_conn = connect srv in
  let heads = Array.map (fun (t : tenant) -> Atomic.make t.head0) tenants in
  let start = now_s () in
  let deadline = start +. ctx.seconds in
  let reads = Domain.spawn (reader ctx ~bc ~heads ~conn:read_conn ~start ~deadline) in
  let tl = timeline () in
  let rec loop i =
    let due = start +. (float_of_int i /. update_rate) in
    let k = i mod traces and n = i / traces in
    if n < Array.length tenants.(k).batches && due < deadline then (
      let wait = due -. now_s () in
      if wait > 0. then Unix.sleepf wait;
      kernel tl;
      let b = tenants.(k).batches.(n) in
      let traced_op = traced_round ctx i in
      let t = if traced_op then tr else off in
      let h = Atomic.get heads.(k) in
      Trace.op t "op" (fun () ->
          let reply, rtt =
            timed (fun () ->
                Trace.span t "client.update" (fun () -> request conn (update_req ~bc h b.text)))
          in
          record tl (i, traced_op, k) rtt;
          match Gates.update_reply ~sent_head:h reply with
          | Error _ as e -> Gates.Tally.record tally e
          | Ok head -> (
              Atomic.set heads.(k) head;
              match mirror with
              | None -> Gates.Tally.record tally (Ok ())
              | Some m ->
                  Gates.Tally.record tally
                    (mirror_update t m ~bc k b ~head
                       ~plan_digest:(Option.value ~default:"" (str "plan_digest" reply)))));
      loop (i + 1))
  in
  loop 0;
  kernel tl;
  let samples = at_reference tl in
  let rtts = List.map (fun ((_, _, k), rtt) -> (k, rtt)) samples in
  let traced_rtt, untraced_rtt =
    List.partition_map
      (fun ((_, traced_op, k), rtt) -> if traced_op then Left (k, rtt) else Right (k, rtt))
      samples
  in
  let r = Domain.join reads in
  let server_rss = peak_rss_mb_of_pid srv.pid in
  stop srv [ conn; read_conn ];
  let tally = Gates.Tally.add tally r.tally in
  let ms q xs = 1000. *. Stat.quantile q xs in
  let update_p50 = 1000. *. per_trace 0.5 rtts and update_p90 = 1000. *. per_trace 0.9 rtts in
  let lines =
    [
      line "update_p50_ms" update_p50 "ms";
      line "update_p90_ms" update_p90 "ms";
      line "read_p50_ms" (ms 0.5 r.latency) "ms";
      line "read_p99_ms" (ms 0.99 r.latency) "ms";
      line "read lateness p99" (ms 0.99 r.lateness) "ms";
      line "updates" (float_of_int (List.length rtts)) "count";
      line "reads" (float_of_int (List.length r.latency)) "count";
      skipped_line ();
      calib_line ();
    ]
  in
  let spans = Trace.merge [ tr; r.recorder ] in
  let values =
    match mirror with
    | None ->
        [
          value "setup_s" setup_s;
          value "peak_rss_mb" server_rss;
          value "plan_cost_usd" (mean (Array.map (fun (t : tenant) -> t.cost) tenants));
          value "op_p50_ms" update_p50;
          value "op_tail_ms" update_p90;
        ]
    | Some m ->
        Journal.close m.journal;
        Service.close m.svc;
        List.iter rm_rf (mirror_dirs ctx);
        per_layer_values spans
          (medians m.counts
          @ [
              ("traces.pairs_per_s", pairs_per_s spans);
              ("journal.bytes_per_update", Stat.median m.bytes);
              ("service.cache_hit_ratio", Plan_cache.hit_ratio (Service.cache_stats m.svc));
              ( "transport.read_ms",
                1000.
                *. (Stat.median (Trace.layer_seconds spans "client.read")
                   -. Stat.median (Trace.layer_seconds spans "service.read")) );
              ("gen.read_lateness_p99_ms", ms 0.99 r.lateness);
              ("obs.trace_overhead_frac", overhead ~traced:traced_rtt ~untraced:untraced_rtt);
            ])
  in
  { tally; values; lines; spans }
