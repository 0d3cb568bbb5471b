(* Tests that the verifier actually catches each class of violation —
   built by hand-placing pairs outside the algorithms. *)

module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Solver = Mcss_core.Solver

let has pred report = List.exists pred report.Verifier.violations

let test_clean_solution_is_valid () =
  let p = Helpers.fig1_problem () in
  let r = Solver.solve p in
  let report = Verifier.verify p r.Solver.selection r.Solver.allocation in
  Helpers.check_bool "valid" true (Verifier.is_valid report);
  Helpers.check_int "vms agree" r.Solver.num_vms report.Verifier.num_vms;
  Helpers.check_float "bandwidth agrees" r.Solver.bandwidth report.Verifier.total_bandwidth

let test_detects_missing_pair () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  let a = Allocation.create ~capacity:80. in
  let b = Allocation.deploy a in
  (* Place only one of the five selected pairs. *)
  Allocation.place a b ~topic:0 ~ev:20. ~subscribers:[| 0 |] ~from:0 ~count:1;
  let report = Verifier.verify p s a in
  Helpers.check_bool "missing pair flagged" true
    (has (function Verifier.Pair_missing _ -> true | _ -> false) report);
  Helpers.check_bool "unsatisfied flagged" true
    (has (function Verifier.Unsatisfied _ -> true | _ -> false) report)

let test_detects_over_capacity () =
  let p = Helpers.fig1_problem ~capacity:35. ~tau:10. () in
  let selection =
    (* A hand-built selection of all five pairs; packing them all on one
       35-capacity VM must trip the capacity check. *)
    let chosen = [| [| 0; 1 |]; [| 0; 1 |]; [| 1 |] |] in
    {
      Selection.chosen;
      selected_rate = [| 30.; 30.; 10. |];
      num_pairs = 5;
      outgoing_rate = 70.;
    }
  in
  let a = Allocation.create ~capacity:35. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:0 ~ev:20. ~subscribers:[| 0; 1 |] ~from:0 ~count:2;
  Allocation.place a b ~topic:1 ~ev:10. ~subscribers:[| 0; 1; 2 |] ~from:0 ~count:3;
  let report = Verifier.verify p selection a in
  Helpers.check_bool "over capacity flagged" true
    (has (function Verifier.Over_capacity _ -> true | _ -> false) report)

let test_detects_foreign_pair () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  let a = Allocation.create ~capacity:80. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:0 ~ev:20. ~subscribers:[| 0; 1 |] ~from:0 ~count:2;
  Allocation.place a b ~topic:1 ~ev:10. ~subscribers:[| 0; 1; 2 |] ~from:0 ~count:3;
  (* Subscriber 2 never selected topic 0 — smuggle the pair in. *)
  let b2 = Allocation.deploy a in
  Allocation.place a b2 ~topic:0 ~ev:20. ~subscribers:[| 2 |] ~from:0 ~count:1;
  let report = Verifier.verify p s a in
  Helpers.check_bool "foreign pair flagged" true
    (has (function Verifier.Pair_not_selected { topic = 0; subscriber = 2 } -> true | _ -> false)
       report)

let test_detects_duplicate_pair () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  let a = Allocation.create ~capacity:80. in
  let b0 = Allocation.deploy a in
  Allocation.place a b0 ~topic:0 ~ev:20. ~subscribers:[| 0; 1 |] ~from:0 ~count:2;
  Allocation.place a b0 ~topic:1 ~ev:10. ~subscribers:[| 0; 1; 2 |] ~from:0 ~count:3;
  let b1 = Allocation.deploy a in
  (* (t1, v2) again, on another VM. *)
  Allocation.place a b1 ~topic:1 ~ev:10. ~subscribers:[| 2 |] ~from:0 ~count:1;
  let report = Verifier.verify p s a in
  Helpers.check_bool "duplicate flagged" true
    (has (function Verifier.Pair_duplicated { topic = 1; subscriber = 2 } -> true | _ -> false)
       report)

let test_pp_violation_renders () =
  let s =
    Format.asprintf "%a" Verifier.pp_violation
      (Verifier.Unsatisfied { subscriber = 3; delivered = 1.; required = 2. })
  in
  Helpers.check_bool "mentions subscriber" true (Helpers.contains ~needle:"subscriber 3" s)

let test_check_exn () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  let a = Allocation.create ~capacity:80. in
  (match Verifier.check_exn p s a with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Helpers.check_bool "message mentions violations" true
        (Helpers.contains ~needle:"violation" msg));
  let r = Solver.solve p in
  ignore (Verifier.check_exn p r.Solver.selection r.Solver.allocation)

let prop_solver_output_always_verifies =
  Helpers.qtest ~count:150 "Solver output is always verifier-clean (all configs)"
    Helpers.problem_arbitrary (fun p ->
      List.for_all
        (fun (_, config) ->
          let r = Solver.solve ~config p in
          Verifier.is_valid (Verifier.verify p r.Solver.selection r.Solver.allocation))
        Solver.ladder)

let test_foreign_pair_placed_twice () =
  let p = Helpers.fig1_problem () in
  let r = Solver.solve p in
  let s = r.Solver.selection and a = r.Solver.allocation in
  (* Subscriber 2 never selected topic 0; smuggle it in on two VMs. *)
  for _ = 1 to 2 do
    Allocation.place a (Allocation.deploy a) ~topic:0 ~ev:20. ~subscribers:[| 2 |] ~from:0
      ~count:1
  done;
  let report = Verifier.verify p s a in
  let count pred = List.length (List.filter pred report.Verifier.violations) in
  Helpers.check_int "one duplicate" 1
    (count (function
      | Verifier.Pair_duplicated { topic = 0; subscriber = 2 } -> true
      | _ -> false));
  Helpers.check_int "two not-selected" 2
    (count (function
      | Verifier.Pair_not_selected { topic = 0; subscriber = 2 } -> true
      | _ -> false));
  Helpers.check_int "nothing else" 3 (List.length report.Verifier.violations)

let test_missing_pairs_in_subscriber_topic_order () =
  let p = Helpers.fig1_problem () in
  let selection =
    {
      Selection.chosen = [| [| 0; 1 |]; [| 0; 1 |]; [| 1 |] |];
      selected_rate = [| 30.; 30.; 10. |];
      num_pairs = 5;
      outgoing_rate = 70.;
    }
  in
  let report = Verifier.verify p selection (Allocation.create ~capacity:80.) in
  let missing =
    List.filter_map
      (function
        | Verifier.Pair_missing { topic; subscriber } -> Some (subscriber, topic)
        | _ -> None)
      report.Verifier.violations
  in
  Alcotest.(check (list (pair int int)))
    "(subscriber, topic) ascending"
    [ (0, 0); (0, 1); (1, 0); (1, 1); (2, 1) ]
    missing

let test_messy_selection_row_verifies_clean () =
  let p = Helpers.fig1_problem () in
  let r = Solver.solve p in
  let s = r.Solver.selection in
  (* The same pairs, with subscriber 0's row reversed and a topic repeated. *)
  let chosen = Array.map Array.copy s.Selection.chosen in
  chosen.(0) <- Array.of_list (List.rev (Array.to_list chosen.(0)) @ [ chosen.(0).(0) ]);
  Helpers.check_bool "row is messy" false
    (chosen.(0).(0) < chosen.(0).(1) && chosen.(0).(1) < chosen.(0).(2));
  let report = Verifier.verify p { s with Selection.chosen } r.Solver.allocation in
  Helpers.check_bool "clean" true (Verifier.is_valid report);
  Helpers.check_float "bandwidth agrees" r.Solver.bandwidth report.Verifier.total_bandwidth

(* Differential check against the tuple-keyed verifier the flat-array one
   replaced ([Verify_reference]): solve with a random ladder config,
   damage the plan at random (zero to four times) and ask both for a
   report. *)

let placed_pairs a =
  let acc = ref [] in
  Allocation.iter_vms a (fun vm ->
      Allocation.iter_vm_pairs vm (fun t v -> acc := (Allocation.vm_id vm, t, v) :: !acc));
  Array.of_list (List.rev !acc)

(* A placed pair, half the time one of [focus]'s so damages pile up on one
   subscriber (a duplicate then moves an [Unsatisfied] figure). *)
let pick_pair rng a ~focus =
  let all = placed_pairs a in
  let mine = Array.of_list (List.filter (fun (_, _, v) -> v = focus) (Array.to_list all)) in
  let from = if Array.length mine > 0 && Mcss_prng.Rng.bool rng then mine else all in
  if Array.length from = 0 then None
  else Some from.(Mcss_prng.Rng.int rng (Array.length from))

let other_vm rng a id =
  let n = Allocation.num_vms a in
  if n < 2 then Allocation.deploy a
  else Allocation.vm_at a ((id + 1 + Mcss_prng.Rng.int rng (n - 1)) mod n)

let place_one a vm ~topic ~ev v =
  Allocation.place a vm ~topic ~ev ~subscribers:[| v |] ~from:0 ~count:1

let damage rng (p : Problem.t) (s : Selection.t) a ~focus =
  let w = p.Problem.workload in
  let ev t = Mcss_workload.Workload.event_rate w t in
  let remove (id, t, v) =
    ignore (Allocation.remove a (Allocation.vm_at a id) ~topic:t ~ev:(ev t) ~subscriber:v)
  in
  match Mcss_prng.Rng.int rng 7 with
  | 0 ->
      (* Drop a pair. *)
      Option.iter remove (pick_pair rng a ~focus);
      s
  | 1 ->
      (* Re-place a pair on another VM: copy it, or move it. *)
      Option.iter
        (fun ((id, t, v) as pr) ->
          if Mcss_prng.Rng.bool rng then remove pr;
          place_one a (other_vm rng a id) ~topic:t ~ev:(ev t) v)
        (pick_pair rng a ~focus);
      s
  | 2 | 3 ->
      (* Smuggle an unselected pair in, once or twice. *)
      let t = Mcss_prng.Rng.int rng (Mcss_workload.Workload.num_topics w) in
      let v =
        if Mcss_prng.Rng.bool rng then focus
        else Mcss_prng.Rng.int rng (Mcss_workload.Workload.num_subscribers w)
      in
      if not (Array.mem t s.Selection.chosen.(v)) then
        for _ = 1 to 1 + Mcss_prng.Rng.int rng 2 do
          let vm =
            if Allocation.num_vms a = 0 || Mcss_prng.Rng.bool rng then Allocation.deploy a
            else Allocation.vm_at a (Mcss_prng.Rng.int rng (Allocation.num_vms a))
          in
          place_one a vm ~topic:t ~ev:(ev t) v
        done;
      s
  | 4 ->
      (* Put a pair back with a wrong rate: the tracked load drifts. *)
      Option.iter
        (fun ((id, t, v) as pr) ->
          remove pr;
          place_one a (Allocation.vm_at a id) ~topic:t ~ev:(ev t +. 1.) v)
        (pick_pair rng a ~focus);
      s
  | 5 ->
      (* Overfill one VM by moving other VMs' pairs onto it. *)
      (if Allocation.num_vms a > 0 then
         let target = Mcss_prng.Rng.int rng (Allocation.num_vms a) in
         let b = Allocation.vm_at a target in
         Array.iter
           (fun ((id, t, v) as pr) ->
             if id <> target && Allocation.load b <= p.Problem.capacity then begin
               remove pr;
               place_one a b ~topic:t ~ev:(ev t) v
             end)
           (placed_pairs a));
      s
  | _ ->
      (* The same pairs behind a messy selection: a row reversed, a topic
         repeated. *)
      let chosen = Array.map Array.copy s.Selection.chosen in
      let v =
        if Mcss_prng.Rng.bool rng then focus
        else Mcss_prng.Rng.int rng (Array.length chosen)
      in
      let row = Array.to_list chosen.(v) in
      chosen.(v) <- Array.of_list (List.rev row @ if row = [] then [] else [ List.hd row ]);
      { s with Selection.chosen }

(* Both lists with the [Pair_missing] run sorted by (subscriber, topic),
   the order {!Verifier.verify} documents. *)
let sort_missing_run vs =
  let is_missing = function Verifier.Pair_missing _ -> true | _ -> false in
  let key = function
    | Verifier.Pair_missing { topic; subscriber } -> (subscriber, topic)
    | _ -> (0, 0)
  in
  let rec take pred acc = function
    | x :: rest when pred x -> take pred (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let before, rest = take (fun x -> not (is_missing x)) [] vs in
  let missing, after = take is_missing [] rest in
  before @ List.sort (fun x y -> compare (key x) (key y)) missing @ after

let same_report (r : Verifier.report) (o : Verifier.report) =
  let bits = Int64.bits_of_float in
  r.num_vms = o.num_vms
  && bits r.total_bandwidth = bits o.total_bandwidth
  && bits r.cost = bits o.cost
  && r.violations = sort_missing_run o.violations

let prop_matches_reference =
  Helpers.qtest ~count:300 "verify = tuple-keyed reference on damaged plans"
    QCheck.(pair Helpers.problem_arbitrary (int_bound 1_000_000))
    (fun (p, seed) ->
      let rng = Mcss_prng.Rng.create seed in
      let ladder = Solver.ladder in
      let _, config = List.nth ladder (Mcss_prng.Rng.int rng (List.length ladder)) in
      let r = Solver.solve ~config p in
      let a = r.Solver.allocation in
      let focus =
        Mcss_prng.Rng.int rng (Mcss_workload.Workload.num_subscribers p.Problem.workload)
      in
      let s = ref r.Solver.selection in
      for _ = 1 to Mcss_prng.Rng.int rng 5 do
        s := damage rng p !s a ~focus
      done;
      let report = Verifier.verify p !s a in
      let oracle = Verify_reference.verify_reference p !s a in
      same_report report oracle
      || QCheck.Test.fail_reportf "verify:@.%a@.reference:@.%a"
           (Format.pp_print_list Verifier.pp_violation)
           report.Verifier.violations
           (Format.pp_print_list Verifier.pp_violation)
           oracle.Verifier.violations)

let suite =
  [
    Alcotest.test_case "clean solution valid" `Quick test_clean_solution_is_valid;
    Alcotest.test_case "detects missing pair" `Quick test_detects_missing_pair;
    Alcotest.test_case "detects over capacity" `Quick test_detects_over_capacity;
    Alcotest.test_case "detects foreign pair" `Quick test_detects_foreign_pair;
    Alcotest.test_case "detects duplicate pair" `Quick test_detects_duplicate_pair;
    Alcotest.test_case "pp_violation renders" `Quick test_pp_violation_renders;
    Alcotest.test_case "check_exn" `Quick test_check_exn;
    Alcotest.test_case "foreign pair placed twice" `Quick test_foreign_pair_placed_twice;
    Alcotest.test_case "missing pairs in order" `Quick
      test_missing_pairs_in_subscriber_topic_order;
    Alcotest.test_case "messy selection row verifies clean" `Quick
      test_messy_selection_row_verifies_clean;
    prop_solver_output_always_verifies;
    prop_matches_reference;
  ]
