module Clock = Mcss_obs.Clock

type ctx = {
  seed : int;
  seconds : float;
  trace : Trace.t;
  out_dir : string;
  mcss : string;
  scale : float option;
}

let traced ctx = Trace.enabled ctx.trace

type report = {
  tally : Gates.Tally.t;
  values : Metrics.value list;
  lines : string list;
  spans : Trace.span list;
}

let tau = 100.
let instance = Mcss_pricing.Instance.c3_large
let skipped = ref 0
let generated_pairs = ref 0
let now_s () = Clock.ns_to_seconds (Clock.now_ns ())
let kernel_passes = ref []

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let timed f =
  let t0 = Clock.now_ns () in
  let x = f () in
  (x, Clock.seconds_since t0)

type 'a mark = Kernel of float | Part of 'a * float
type 'a timeline = { mutable marks : 'a mark list (* newest first *) }

let timeline () = { marks = [] }

let kernel ?ref_s tl =
  let s =
    match ref_s with
    | Some s -> s
    | None ->
        let s = Calib.sample () in
        kernel_passes := s :: !kernel_passes;
        s
  in
  tl.marks <- Kernel s :: tl.marks

let record tl key wall = tl.marks <- Part (key, wall) :: tl.marks

let at_reference tl =
  let a = Array.of_list (List.rev tl.marks) in
  let rec kernel_from i step =
    match a.(i) with Kernel s -> s | Part _ -> kernel_from (i + step) step
  in
  let sums = Hashtbl.create 64 and order = ref [] in
  Array.iteri
    (fun i -> function
      | Kernel _ -> ()
      | Part (key, wall) ->
          let ref_s = sqrt (kernel_from (i - 1) (-1) *. kernel_from (i + 1) 1) in
          if not (Hashtbl.mem sums key) then order := key :: !order;
          let sum = Option.value ~default:0. (Hashtbl.find_opt sums key) in
          Hashtbl.replace sums key (sum +. Calib.at_reference ~ref_s wall))
    a;
  List.rev_map (fun key -> (key, Hashtbl.find sums key)) !order

let setups ctx ~traces f =
  let cursor = ref 0 in
  let next_seed () =
    let seed = ctx.seed + (!cursor * 1_000_003) in
    incr cursor;
    seed
  in
  let tl = timeline () in
  let envs =
    Array.init traces (fun k ->
        kernel tl;
        let x, s = timed (fun () -> f ~next_seed k) in
        record tl k s;
        Gc.compact ();
        x)
  in
  kernel tl;
  (envs, Stat.median (List.map snd (at_reference tl)))

(* Whether every topic somebody follows fits an empty VM; otherwise the
   instance may be infeasible at this capacity. *)
let fits (p : Mcss_core.Problem.t) =
  let w = p.Mcss_core.Problem.workload in
  let module W = Mcss_workload.Workload in
  let followed = Array.make (W.num_topics w) false in
  for v = 0 to W.num_subscribers w - 1 do
    Array.iter (fun t -> followed.(t) <- true) (W.interests w v)
  done;
  let ok = ref true in
  Array.iteri
    (fun t f -> if f && not (Mcss_core.Problem.pair_fits_empty_vm p t) then ok := false)
    followed;
  !ok

let feasible_trace ctx ~next_seed family ~scale ~bc_events =
  let rec go () =
    let seed = next_seed () in
    let w =
      Trace.span ctx.trace "traces.generate" (fun () ->
          Mcss_front.Front.generate ~seed family ~scale)
    in
    generated_pairs := !generated_pairs + Mcss_workload.Workload.num_pairs w;
    let _, p = Mcss_front.Front.problem_of ~w ~tau ~instance ~scale ~bc_events in
    if fits p then (seed, p)
    else (
      incr skipped;
      go ())
  in
  go ()

type part = { part : 'a. (unit -> 'a) -> 'a }

let op_rounds ~traces ~seconds ~min_rounds f =
  let t0 = now_s () in
  let tl = timeline () in
  let rec round r =
    let r0 = now_s () in
    for k = 0 to traces - 1 do
      Gc.compact ();
      kernel tl;
      let first = ref true in
      let part g =
        if not !first then kernel tl;
        first := false;
        let x, wall = timed g in
        record tl (r, k) wall;
        x
      in
      f ~round:r ~part:{ part } k
    done;
    let now = now_s () in
    if r + 1 < min_rounds || now +. (now -. r0) -. t0 <= seconds then round (r + 1)
  in
  round 0;
  Gc.compact ();
  kernel tl;
  at_reference tl

let of_trace k samples = List.filter_map (fun (k', x) -> if k = k' then Some x else None) samples
let trace_ids samples = List.sort_uniq compare (List.map fst samples)

let per_trace q samples =
  mean (Array.of_list (List.map (fun k -> Stat.quantile q (of_trace k samples)) (trace_ids samples)))

let overhead ~traced ~untraced =
  List.map
    (fun k -> Stat.median (of_trace k traced) /. Stat.median (of_trace k untraced))
    (trace_ids traced)
  |> List.filter Float.is_finite |> Stat.median
  |> fun ratio -> ratio -. 1.

let vmhwm_mb path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

let own_peak_rss_mb () = vmhwm_mb "/proc/self/status"
let peak_rss_mb_of_pid pid = vmhwm_mb (Printf.sprintf "/proc/%d/status" pid)

let stable_digest ctx ~workload ~seed digest =
  let dir = Filename.concat ctx.out_dir "digests" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-%d" workload seed) in
  if Sys.file_exists path then
    let recorded = In_channel.with_open_bin path In_channel.input_all in
    Gates.same_digest ~what:"plan (against an earlier run at this seed)"
      ~expected:recorded digest
  else (
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc digest);
    Sys.rename tmp path;
    Ok ())

type planned = {
  selection : Mcss_core.Selection.t;
  allocation : Mcss_core.Allocation.t;
  report : Mcss_core.Verifier.report;
  cost : float;
}

let plan_layers tr obs p =
  let open Mcss_core in
  let selection = Trace.span tr "selection.gsp" (fun () -> Selection.gsp ~obs p) in
  let allocation =
    Trace.span tr "cbp.run" (fun () -> Cbp.run ~obs p selection Cbp.with_cost_decision)
  in
  let report =
    Trace.span tr "verifier.verify" (fun () -> Verifier.verify p selection allocation)
  in
  let cost =
    Problem.cost p ~vms:(Allocation.num_vms allocation)
      ~bandwidth:(Allocation.total_load allocation)
  in
  { selection; allocation; report; cost }

let plan_counts obs r =
  let counter name =
    float_of_int (Mcss_obs.Metric.Counter.value (Mcss_obs.Registry.counter obs name))
  in
  [
    ("selection.pairs_selected", float_of_int r.selection.Mcss_core.Selection.num_pairs);
    ("selection.eligible_set_ops", counter "stage1.eligible_set_ops");
    ("cbp.placements", counter "stage2.placements");
    ("cbp.vms", float_of_int (Mcss_core.Allocation.num_vms r.allocation));
  ]

let medians named =
  List.fold_left (fun acc (k, _) -> if List.mem k acc then acc else k :: acc) [] named
  |> List.rev_map (fun k ->
         (k, Stat.median (List.filter_map (fun (k', v) -> if k = k' then Some v else None) named)))

let pairs_per_s spans =
  float_of_int !generated_pairs
  /. List.fold_left ( +. ) 0. (Trace.layer_seconds spans "traces.generate")

let value metric v = { Metrics.metric; v }
let line label x unit = Printf.sprintf "%-28s %14.6g %s" label x unit
let skipped_line () = line "traces skipped (infeasible)" (float_of_int !skipped) "count"

let calib_line () =
  line "reference kernel (median)" (1000. *. Stat.median !kernel_passes) "ms"

let suffix s ~by =
  let n = String.length s and k = String.length by in
  n > k && String.sub s (n - k) k = by

let major_words = [ ("selection.major_words", "selection.gsp"); ("cbp.major_words", "cbp.run") ]

let per_layer_values spans extra =
  let median_or_zero = function [] -> 0. | xs -> Stat.median xs in
  let from_spans (m : Metrics.decl) =
    if List.mem_assoc m.name extra then None
    else if List.mem_assoc m.name major_words then
      Some (median_or_zero (Trace.layer_words spans (List.assoc m.name major_words) `Major))
    else if m.name = "op.wall_s" then
      Some
        (median_or_zero
           (List.map
              (fun (s : Trace.span) -> Clock.ns_to_seconds (Int64.sub s.stop_ns s.start_ns))
              (Trace.roots spans "op")))
    else if m.name = "op.uncovered_frac" then
      let f = Trace.uncovered_fraction spans "op" in
      Some (if Float.is_nan f then 0. else f)
    else if suffix m.name ~by:"_s" then
      Some
        (median_or_zero
           (Trace.layer_seconds spans (String.sub m.name 0 (String.length m.name - 2))))
    else None
  in
  List.map
    (fun (m : Metrics.decl) ->
      match from_spans m with
      | Some v -> value m.name v
      | None -> value m.name (Option.value ~default:0. (List.assoc_opt m.name extra)))
    Metrics.per_layer
