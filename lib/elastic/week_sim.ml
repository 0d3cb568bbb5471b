module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Engine = Mcss_engine.Engine
module Cost_model = Mcss_pricing.Cost_model
module Reservation = Mcss_pricing.Reservation
module Clock = Mcss_obs.Clock

type slice_row = {
  slice : int;
  multiplier : float;
  fleet : int;
  reserved : int;
  overflow : int;
  consolidated : bool;
  scaling_actions : int;
  vm_usd : float;
  bandwidth_usd : float;
  scaling_usd : float;
  apply_seconds : float;
  clean : bool;
}

type policy_run = {
  policy : string;
  rows : slice_row array;
  vm_usd : float;
  bandwidth_usd : float;
  scaling_usd : float;
  total_usd : float;
  scaling_actions : int;
  reprovisions : int;
  apply_p95_seconds : float;
  clean : bool;
}

type result = {
  scenario : Scenario.t;
  static_fleet : int;
  static : policy_run;
  policies : policy_run list;
  oracle_usd : float;
  oracle_fleet : int array;
}

let percentile values p =
  let n = Array.length values in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy values in
    Array.sort compare sorted;
    let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))
  end

(* Re-price an allocation's bandwidth under different event rates: one
   incoming unit per distinct topic on a VM plus one outgoing unit per
   pair, exactly the verifier's recomputation (Eq. 2). *)
let bandwidth_under allocation rates =
  Array.fold_left
    (fun acc vm ->
      let incoming =
        List.fold_left (fun a t -> a +. rates.(t)) 0. (Allocation.topics_on vm)
      in
      let outgoing = ref 0. in
      Allocation.iter_vm_pairs vm (fun t _ -> outgoing := !outgoing +. rates.(t));
      acc +. incoming +. !outgoing)
    0.
    (Allocation.vms allocation)

let finish_run ~policy (rows : slice_row array) =
  let sum f = Array.fold_left (fun a r -> a +. f r) 0. rows in
  {
    policy;
    rows;
    vm_usd = sum (fun r -> r.vm_usd);
    bandwidth_usd = sum (fun r -> r.bandwidth_usd);
    scaling_usd = sum (fun r -> r.scaling_usd);
    total_usd = sum (fun r -> r.vm_usd +. r.bandwidth_usd +. r.scaling_usd);
    scaling_actions =
      Array.fold_left (fun a (r : slice_row) -> a + r.scaling_actions) 0 rows;
    reprovisions = 0;
    apply_p95_seconds = percentile (Array.map (fun r -> r.apply_seconds) rows) 95.;
    clean = Array.for_all (fun (r : slice_row) -> r.clean) rows;
  }

let run ?pricing ?capacity_events ?policies ?(on_slice = fun ~policy:_ _ -> ())
    ~workload ~tau ~model scenario =
  Scenario.validate scenario;
  let pricing =
    match pricing with
    | Some p ->
        Reservation.validate p;
        p
    | None -> Reservation.default ~instance:model.Cost_model.instance ()
  in
  let slices = scenario.Scenario.slices in
  let slice_hours = scenario.Scenario.slice_hours in
  let base_rates = Workload.event_rates workload in
  let num_topics = Array.length base_rates in
  let marked = Scenario.affected scenario ~num_topics in
  let ms = Array.init slices (fun k -> Scenario.multiplier scenario ~slice:k) in
  let rates_at k =
    Array.mapi (fun t r -> if marked.(t) then r *. ms.(k) else r) base_rates
  in
  let batches = Scenario.compile scenario workload in
  let problem_of w = Problem.of_pricing ?capacity_events ~workload:w ~tau model in
  (* Traffic during one slice, in event units: rates are events per
     model horizon, a slice is slice_hours of it. *)
  let bandwidth_usd bw_rate =
    Cost_model.bandwidth_cost model
      (bw_rate *. slice_hours /. model.Cost_model.horizon_hours)
  in
  let base_plan = Engine.plan (Engine.create (problem_of workload)) in

  (* --- static baseline: solve the envelope once, reserve it all. --- *)
  let static_run, static_fleet =
    let env_problem = problem_of (Scenario.envelope_workload scenario workload) in
    let plan = Engine.plan (Engine.create env_problem) in
    let report = Verifier.verify plan.problem plan.selection plan.allocation in
    let clean = Verifier.is_valid report in
    let fleet = Allocation.num_vms plan.allocation in
    let rows =
      Array.init slices (fun k ->
          let row =
            {
              slice = k;
              multiplier = ms.(k);
              fleet;
              reserved = fleet;
              overflow = 0;
              consolidated = false;
              scaling_actions = 0;
              vm_usd =
                Reservation.slice_vm_cost pricing ~reserved:fleet ~used:fleet
                  ~hours:slice_hours;
              bandwidth_usd =
                bandwidth_usd (bandwidth_under plan.allocation (rates_at k));
              scaling_usd = 0.;
              apply_seconds = 0.;
              clean;
            }
          in
          on_slice ~policy:"static" row;
          row)
    in
    (finish_run ~policy:"static" rows, fleet)
  in

  (* --- one tracked engine per adaptive policy. --- *)
  let policies =
    match policies with
    | Some ps -> ps
    | None ->
        [
          Autoscaler.hysteresis ();
          Autoscaler.lookahead ~pricing ~slice_hours ();
        ]
  in
  let track (policy : Autoscaler.t) =
    let engine = Engine.of_plan base_plan in
    let prev_reserved = ref None in
    let reprovisions = ref 0 in
    let rows =
      Array.init slices (fun k ->
          let t0 = Clock.now_ns () in
          let stats = Engine.apply engine batches.(k) in
          let plan = Engine.plan engine in
          let fleet0 = Allocation.num_vms plan.allocation in
          let load = Allocation.total_load plan.allocation in
          let capacity = plan.problem.Problem.capacity in
          let observation =
            {
              Autoscaler.slice = k;
              fleet = fleet0;
              min_fleet = int_of_float (ceil (load /. capacity));
              utilization = load /. (float_of_int fleet0 *. capacity);
              forecast =
                Array.init
                  (min policy.Autoscaler.horizon (slices - 1 - k))
                  (fun j ->
                    max 1
                      (int_of_float
                         (Float.round
                            (float_of_int fleet0 *. ms.(k + 1 + j) /. ms.(k)))));
            }
          in
          let decision = policy.Autoscaler.decide observation in
          let consolidated =
            decision.Autoscaler.consolidate
            && (Engine.consolidate engine).Engine.vms_removed > 0
          in
          let apply_seconds = Clock.seconds_since t0 in
          let plan = Engine.plan engine in
          let fleet = Allocation.num_vms plan.allocation in
          let report = Verifier.verify plan.problem plan.selection plan.allocation in
          let reserved = decision.Autoscaler.reserved in
          let scaling_actions =
            (match !prev_reserved with
            | Some r when r <> reserved -> 1
            | _ -> 0)
            + if consolidated then 1 else 0
          in
          prev_reserved := Some reserved;
          let changed =
            stats.Engine.pairs_added + stats.Engine.pairs_removed
              + stats.Engine.pairs_evicted + stats.Engine.vms_added
              + stats.Engine.vms_removed
              > 0
            || stats.Engine.resolved || consolidated
          in
          if changed then incr reprovisions;
          let row =
            {
              slice = k;
              multiplier = ms.(k);
              fleet;
              reserved;
              overflow = max 0 (fleet - reserved);
              consolidated;
              scaling_actions;
              vm_usd =
                Reservation.slice_vm_cost pricing ~reserved ~used:fleet
                  ~hours:slice_hours;
              bandwidth_usd = bandwidth_usd report.Verifier.total_bandwidth;
              scaling_usd = Reservation.scaling_cost pricing ~actions:scaling_actions;
              apply_seconds;
              clean = Verifier.is_valid report;
            }
          in
          on_slice ~policy:policy.Autoscaler.name row;
          row)
    in
    { (finish_run ~policy:policy.Autoscaler.name rows) with
      reprovisions = !reprovisions }
  in
  let policy_runs = List.map track policies in

  (* --- oracle: free per-slice consolidation, exact commitment. --- *)
  let oracle_usd, oracle_fleet =
    let engine = Engine.of_plan base_plan in
    let total = ref 0. in
    let fleets =
      Array.init slices (fun k ->
          ignore (Engine.apply engine batches.(k));
          ignore (Engine.consolidate engine);
          let plan = Engine.plan engine in
          let fleet = Allocation.num_vms plan.allocation in
          total :=
            !total
            +. Reservation.slice_vm_cost pricing ~reserved:fleet ~used:fleet
                 ~hours:slice_hours
            +. bandwidth_usd (Allocation.total_load plan.allocation);
          fleet)
    in
    (!total, fleets)
  in
  {
    scenario;
    static_fleet;
    static = static_run;
    policies = policy_runs;
    oracle_usd;
    oracle_fleet;
  }

(* --- JSON ledger -------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_ledger path result =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let p fmt = Printf.fprintf oc fmt in
      let s = result.scenario in
      p "{\n";
      p "  \"schema\": \"mcss-elastic-ledger-1\",\n";
      p "  \"scenario\": {\n";
      p "    \"slices\": %d,\n" s.Scenario.slices;
      p "    \"slice_hours\": %.17g,\n" s.Scenario.slice_hours;
      p "    \"seed\": %d,\n" s.Scenario.seed;
      p "    \"coverage\": %.17g,\n" s.Scenario.coverage;
      p "    \"curve\": [%s]\n"
        (String.concat ", "
           (List.map
              (fun c ->
                Printf.sprintf "\"%s\""
                  (json_escape (Rate_curve.component_to_string c)))
              s.Scenario.curve));
      p "  },\n";
      p "  \"static_fleet\": %d,\n" result.static_fleet;
      p "  \"oracle\": { \"total_usd\": %.6f, \"fleet\": [%s] },\n"
        result.oracle_usd
        (String.concat ", "
           (Array.to_list (Array.map string_of_int result.oracle_fleet)));
      p "  \"policies\": [";
      List.iteri
        (fun i run ->
          if i > 0 then p ",";
          p "\n    {\n";
          p "      \"policy\": \"%s\",\n" (json_escape run.policy);
          p "      \"total_usd\": %.6f,\n" run.total_usd;
          p "      \"vm_usd\": %.6f,\n" run.vm_usd;
          p "      \"bandwidth_usd\": %.6f,\n" run.bandwidth_usd;
          p "      \"scaling_usd\": %.6f,\n" run.scaling_usd;
          p "      \"scaling_actions\": %d,\n" run.scaling_actions;
          p "      \"reprovisions\": %d,\n" run.reprovisions;
          p "      \"apply_p95_seconds\": %.9f,\n" run.apply_p95_seconds;
          p "      \"clean\": %b,\n" run.clean;
          p "      \"rows\": [";
          Array.iteri
            (fun j r ->
              if j > 0 then p ",";
              p
                "\n        { \"slice\": %d, \"multiplier\": %.6f, \"fleet\": \
                 %d, \"reserved\": %d, \"overflow\": %d, \"consolidated\": \
                 %b, \"scaling_actions\": %d, \"vm_usd\": %.6f, \
                 \"bandwidth_usd\": %.6f, \"scaling_usd\": %.6f, \
                 \"apply_seconds\": %.9f, \"clean\": %b }"
                r.slice r.multiplier r.fleet r.reserved r.overflow
                r.consolidated r.scaling_actions r.vm_usd r.bandwidth_usd
                r.scaling_usd r.apply_seconds r.clean)
            run.rows;
          p "\n      ]\n";
          p "    }")
        (result.static :: result.policies);
      p "\n  ]\n";
      p "}\n")
