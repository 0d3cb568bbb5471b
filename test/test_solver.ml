(* Tests for the end-to-end solver pipeline and the evaluation ladder. *)

module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Solver = Mcss_core.Solver
module Lower_bound = Mcss_core.Lower_bound

let test_ladder_shape () =
  Helpers.check_int "six configurations" 6 (List.length Solver.ladder);
  Alcotest.(check (list string)) "names in the paper's order"
    [
      "RSP+FFBP";
      "(a) GSP+FFBP";
      "(b) +grouping";
      "(c) +expensive-first";
      "(d) +most-free-VM";
      "(e) +cost-decision";
    ]
    (List.map fst Solver.ladder)

let test_config_of_name () =
  Helpers.check_bool "known" true (Solver.config_of_name "(b) +grouping" <> None);
  Helpers.check_bool "unknown" true (Solver.config_of_name "nope" = None)

let test_default_solves_fig1 () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  Helpers.check_int "3 VMs" 3 r.Solver.num_vms;
  Helpers.check_float "bandwidth" 120. r.Solver.bandwidth;
  Helpers.check_float "cost = #VMs under unit costs" 3. r.Solver.cost;
  Helpers.check_bool "stage timings nonnegative" true
    (r.Solver.stage1_seconds >= 0. && r.Solver.stage2_seconds >= 0.)

let test_gsp_reference_config () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  Helpers.check_int "pairs" 5 (Gsp_reference.gsp_reference p).Selection.num_pairs

let test_cost_accounting_consistent () =
  let p =
    Helpers.fig1_problem ~capacity:50. ()
  in
  let r = Solver.solve p in
  Helpers.check_float "cost = C1 + C2" (Problem.cost p ~vms:r.Solver.num_vms ~bandwidth:r.Solver.bandwidth)
    r.Solver.cost

let test_pp_result () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let s = Format.asprintf "%a" Solver.pp_result (Solver.solve p) in
  Helpers.check_bool "mentions VMs" true (Helpers.contains ~needle:"3 VMs" s)

let test_infeasible_propagates () =
  let w = Helpers.workload ~rates:[ 100. ] ~interests:[ [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:10. ~capacity:50. Problem.unit_costs in
  (match Solver.solve p with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception Problem.Infeasible _ -> ())

(* GSP dominating RSP is not a per-instance theorem (a subscriber whose
   first interest alone covers tau_v can make RSP luckily cheaper), but on
   aggregate workloads it holds comfortably — pin it on fixed seeds so a
   regression in the heuristic shows up. *)
let test_full_pipeline_beats_naive_on_seeded_instances () =
  List.iter
    (fun seed ->
      let rng = Mcss_prng.Rng.create seed in
      let p =
        Helpers.random_problem rng ~num_topics:150 ~num_subscribers:400 ~max_rate:40
          ~max_interests:10 ~tau:50. ~capacity:400.
      in
      let best = Solver.solve ~config:Solver.default p in
      let naive = Solver.solve ~config:Solver.naive p in
      if best.Solver.cost > naive.Solver.cost then
        Alcotest.failf "seed %d: full pipeline ($%.2f) lost to naive ($%.2f)" seed
          best.Solver.cost naive.Solver.cost;
      if
        (Selection.gsp p).Selection.outgoing_rate
        > (Selection.rsp p).Selection.outgoing_rate
      then Alcotest.failf "seed %d: GSP selected more bandwidth than RSP" seed)
    [ 1; 2; 3; 42; 1337 ]

(* The tentpole determinism contract: the whole pipeline — domain-parallel
   Stage-1 plus parallel group construction feeding CBP — must emit a
   plan whose serialised form is bit-identical to the sequential solve
   at any domain count. *)
let prop_solve_domains_bit_identical =
  Helpers.qtest ~count:60 "solve plan is bit-identical at 1, 2 and 4 domains"
    Helpers.problem_arbitrary (fun p ->
      match Solver.solve p with
      | exception Problem.Infeasible _ -> true
      | seq ->
          let reference = Mcss_core.Plan_io.to_string seq.Solver.allocation in
          List.for_all
            (fun domains ->
              let r = Solver.solve ~domains p in
              String.equal reference
                (Mcss_core.Plan_io.to_string r.Solver.allocation))
            [ 1; 2; 4 ])

let suite =
  [
    Alcotest.test_case "ladder shape" `Quick test_ladder_shape;
    Alcotest.test_case "config_of_name" `Quick test_config_of_name;
    Alcotest.test_case "default solves fig1" `Quick test_default_solves_fig1;
    Alcotest.test_case "gsp_reference config" `Quick test_gsp_reference_config;
    Alcotest.test_case "cost accounting consistent" `Quick test_cost_accounting_consistent;
    Alcotest.test_case "pp_result" `Quick test_pp_result;
    Alcotest.test_case "infeasible propagates" `Quick test_infeasible_propagates;
    Alcotest.test_case "beats naive on seeded instances" `Quick
      test_full_pipeline_beats_naive_on_seeded_instances;
    prop_solve_domains_bit_identical;
  ]
