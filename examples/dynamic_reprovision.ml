(* Dynamic re-provisioning: the paper closes by proposing to re-run the
   allocator periodically "to adapt to the changes in the event rates,
   new subscriptions, unsubscriptions" (§IV-F) and names an online
   algorithm as future work (§VI). This example plays out that future:
   a Spotify-like service absorbs a day of churn every tick, and the
   incremental planner adapts the running fleet while counting exactly
   how much state would migrate — versus re-solving from scratch.

   Run with: dune exec examples/dynamic_reprovision.exe *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver
module Verifier = Mcss_core.Verifier
module Delta = Mcss_engine.Delta
module Churn = Mcss_dynamic.Churn
module Engine = Mcss_engine.Engine
module Table = Mcss_report.Table
module Rng = Mcss_prng.Rng
module Spotify = Mcss_traces.Spotify

let problem_for w =
  Problem.of_pricing ~capacity_events:250_000. ~workload:w ~tau:100.
    (Mcss_pricing.Cost_model.ec2_2014 ())

(* One tick of churn: fresh users join, follows appear and disappear, a
   few artists get hot or go quiet — the parametric model from
   Mcss_dynamic.Churn, doubled. *)
let day = Churn.scaled 2.0

let () =
  let rng = Rng.create 2026 in
  let w = ref (Spotify.generate { (Spotify.scaled 0.005) with Spotify.seed = 99 }) in
  Format.printf "day 0: %a@.@." Workload.pp_summary !w;
  (* Drift re-solves off: every day is answered by in-place surgery with
     a full GSP reselection, never by a cold solve. *)
  let eng = Engine.create ~drift_threshold:infinity (problem_for !w) in
  let table =
    Table.create
      [
        ("day", Table.Right);
        ("VMs", Table.Right);
        ("incr cost", Table.Right);
        ("cold cost", Table.Right);
        ("kept", Table.Right);
        ("added", Table.Right);
        ("removed", Table.Right);
        ("evicted", Table.Right);
        ("moved %", Table.Right);
        ("incr ms", Table.Right);
      ]
  in
  for day_num = 1 to 7 do
    let deltas = Churn.tick rng day !w in
    w := Delta.apply !w deltas;
    let p = problem_for !w in
    let t0 = Unix.gettimeofday () in
    let stats = Engine.retarget eng p in
    let incr_ms = 1000. *. (Unix.gettimeofday () -. t0) in
    let plan = Engine.plan eng in
    ignore (Verifier.check_exn p plan.Engine.selection plan.Engine.allocation);
    let cold = Solver.solve p in
    let total_pairs = stats.Engine.pairs_kept + stats.Engine.pairs_added in
    let moved =
      100.
      *. float_of_int (stats.Engine.pairs_added + stats.Engine.pairs_evicted)
      /. float_of_int (max 1 total_pairs)
    in
    Table.add_row table
      [
        string_of_int day_num;
        string_of_int (Engine.num_vms eng);
        Table.cell_usd (Engine.cost eng);
        Table.cell_usd cold.Solver.cost;
        string_of_int stats.Engine.pairs_kept;
        string_of_int stats.Engine.pairs_added;
        string_of_int stats.Engine.pairs_removed;
        string_of_int stats.Engine.pairs_evicted;
        Table.cell_float ~decimals:2 moved;
        Table.cell_float ~decimals:1 incr_ms;
      ]
  done;
  Table.print table;
  print_endline
    "\nEvery day the incremental plan stays verifier-clean, touches a tiny\n\
     fraction of the pairs (a cold re-solve would reshuffle nearly all of\n\
     them), and its cost tracks the from-scratch optimiser."
