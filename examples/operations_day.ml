(* A day in the life of the pub/sub fleet: the full operational loop the
   library supports, end to end —

     boot  -> solve + verify + audit
     09:00 -> churn arrives, incremental reprovision
     12:00 -> two VMs die, measure the damage, recover
     15:00 -> demand drops, consolidate the fragmented fleet
     18:00 -> audit again and replay through the simulator

   Every step re-verifies; the program aborts loudly if any invariant is
   violated.

   Run with: dune exec examples/operations_day.exe *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver
module Verifier = Mcss_core.Verifier
module Stats = Mcss_core.Solution_stats
module Simulator = Mcss_sim.Simulator
module Delta = Mcss_engine.Delta
module Churn = Mcss_dynamic.Churn
module Engine = Mcss_engine.Engine
module Spotify = Mcss_traces.Spotify

let capacity_events = 250_000.

let problem_for ?(tau = 100.) w =
  Problem.of_pricing ~capacity_events ~workload:w ~tau
    (Mcss_pricing.Cost_model.ec2_2014 ())

let audit label eng =
  let { Engine.problem; selection; allocation } = Engine.plan eng in
  ignore (Verifier.check_exn problem selection allocation);
  Format.printf "%-28s %a@." label Stats.pp (Stats.compute problem allocation);
  Printf.printf "%-28s cost %s\n\n" "" (Mcss_report.Table.cell_usd (Engine.cost eng))

let () =
  let rng = Mcss_prng.Rng.create 404 in
  let w = ref (Spotify.generate { (Spotify.scaled 0.004) with Spotify.seed = 8 }) in
  Format.printf "boot: %a@.@." Workload.pp_summary !w;

  (* Boot: cold solve. Drift re-solves are off, so every later step is
     in-place surgery on this fleet. *)
  let eng = Engine.create ~drift_threshold:infinity (problem_for !w) in
  audit "[boot] solved + verified" eng;

  (* 09:00 — churn. *)
  let deltas = Churn.tick rng (Churn.scaled 1.5) !w in
  w := Delta.apply !w deltas;
  let stats = Engine.retarget eng (problem_for !w) in
  Printf.printf
    "[09:00] absorbed %d deltas: kept %d pairs, added %d, removed %d, evicted %d\n"
    (List.length deltas) stats.Engine.pairs_kept stats.Engine.pairs_added
    stats.Engine.pairs_removed stats.Engine.pairs_evicted;
  audit "[09:00] reprovisioned" eng;

  (* 12:00 — two VMs die. First measure what the outage costs while it
     lasts, then re-home the orphaned pairs. *)
  let failed = [ 0; 1 ] in
  let outage_config =
    {
      Simulator.default_config with
      Simulator.outages =
        List.map
          (fun vm -> Simulator.outage ~vm ~from_time:0.5 ~until_time:infinity ())
          failed;
    }
  in
  let a = (Engine.plan eng).Engine.allocation in
  let res = Simulator.run (problem_for !w) a outage_config in
  let hurt = Simulator.check (problem_for !w) a res ~tolerance:0. in
  Printf.printf
    "[12:00] VMs %s down: %d events lost, %d subscribers under threshold\n"
    (String.concat "," (List.map string_of_int failed))
    (Array.fold_left ( + ) 0 res.Simulator.lost)
    (List.length hurt.Simulator.unsatisfied);
  let rstats = Engine.fail eng ~failed in
  Printf.printf "[12:00] recovery re-homed %d pairs onto %d fresh VMs\n"
    rstats.Engine.pairs_rehomed rstats.Engine.vms_added;
  audit "[12:00] recovered" eng;

  (* 15:00 — the product lowers the notification budget; demand drops and
     the fleet fragments. Consolidate. *)
  let p_small = problem_for ~tau:30. !w in
  let sstats = Engine.retarget eng p_small in
  Printf.printf "[15:00] demand drop dropped %d pairs in place\n"
    sstats.Engine.pairs_removed;
  let before = Engine.num_vms eng in
  let cstats = Engine.consolidate eng in
  Printf.printf "[15:00] consolidation: %d -> %d VMs (moved %d pairs)\n" before
    (Engine.num_vms eng) cstats.Engine.pairs_evicted;
  audit "[15:00] consolidated" eng;

  (* 18:00 — final replay: the plan must deliver exactly what it claims. *)
  let { Engine.problem = final_p; allocation = final_a; _ } = Engine.plan eng in
  let res = Simulator.run final_p final_a Simulator.default_config in
  let check = Simulator.check final_p final_a res ~tolerance:0. in
  Printf.printf "[18:00] replay: %d events, measured = analytical: %b\n"
    res.Simulator.events_published
    (Simulator.all_ok check);
  if not (Simulator.all_ok check) then failwith "operations day ended with a violation";
  print_endline "\nall checkpoints verified."
