module Workload = Mcss_workload.Workload
module Arena = Mcss_core.Arena
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Solver = Mcss_core.Solver

type plan = {
  problem : Problem.t;
  selection : Selection.t;
  allocation : Allocation.t;
}

type change_stats = {
  pairs_kept : int;
  pairs_added : int;
  pairs_removed : int;
  pairs_evicted : int;
  vms_added : int;
  vms_removed : int;
  dirty_subscribers : int;
  resolved : bool;
}

type recovery_stats = { vms_lost : int; pairs_rehomed : int; vms_added : int }

type t = {
  mutable problem : Problem.t;
  mutable selection : Selection.t;
  mutable allocation : Allocation.t;
  (* encode_pair (topic, subscriber) -> hosting VM id; the incremental
     analogue of [Allocation.find_pair_vm]'s fleet scan, on a flat
     open-addressing table (no tuple key allocated per lookup). Kept in
     sync by every mutation below. *)
  homes : Arena.Int_table.t;
  config : Solver.config;
  domains : int;
  drift_threshold : float;
  mutable churned_pairs : int;
}

let default_drift_threshold = 0.5

let home_key ~topic ~subscriber = Arena.encode_pair ~topic ~subscriber

let rebuild_homes homes a =
  Arena.Int_table.reset homes;
  Allocation.iter_vms a (fun vm ->
      let id = Allocation.vm_id vm in
      Allocation.iter_vm_pairs vm (fun topic v ->
          Arena.Int_table.set homes (home_key ~topic ~subscriber:v) id))

(* Rebuild an identical fleet so adopting an external plan never lets the
   engine mutate its caller's allocation. *)
let clone_allocation ~capacity w a =
  let fresh = Allocation.create ~capacity in
  Array.iter
    (fun vm ->
      let copy = Allocation.deploy fresh in
      List.iter
        (fun topic ->
          let subs = Array.of_list (Allocation.subscribers_of_topic_on vm topic) in
          Allocation.place fresh copy ~topic ~ev:(Workload.event_rate w topic)
            ~subscribers:subs ~from:0 ~count:(Array.length subs))
        (Allocation.topics_on vm))
    (Allocation.vms a);
  fresh

let of_parts ~config ~drift_threshold ~domains ~clone (plan : plan) =
  let allocation =
    if clone then
      clone_allocation ~capacity:plan.problem.Problem.capacity
        plan.problem.Problem.workload plan.allocation
    else plan.allocation
  in
  let homes =
    Arena.Int_table.create ~capacity:(2 * plan.selection.Selection.num_pairs + 16) ()
  in
  rebuild_homes homes allocation;
  {
    problem = plan.problem;
    selection = plan.selection;
    allocation;
    homes;
    config;
    domains;
    drift_threshold;
    churned_pairs = 0;
  }

let of_plan ?(config = Solver.default) ?(drift_threshold = default_drift_threshold)
    ?(domains = 1) plan =
  of_parts ~config ~drift_threshold ~domains ~clone:true plan

let create ?(config = Solver.default) ?(drift_threshold = default_drift_threshold)
    ?(domains = 1) p =
  let r = Solver.solve ~config ~domains p in
  of_parts ~config ~drift_threshold ~domains ~clone:false
    { problem = p; selection = r.Solver.selection; allocation = r.Solver.allocation }

let plan t = { problem = t.problem; selection = t.selection; allocation = t.allocation }
let problem t = t.problem
let num_vms t = Allocation.num_vms t.allocation

let cost t =
  Problem.cost t.problem ~vms:(Allocation.num_vms t.allocation)
    ~bandwidth:(Allocation.total_load t.allocation)

let residual t id =
  if id < 0 || id >= Allocation.num_vms t.allocation then
    invalid_arg (Printf.sprintf "Engine.residual: no VM %d" id);
  Allocation.free_of t.allocation id

let rem_v t v =
  Float.max 0. (Problem.tau_v t.problem v -. t.selection.Selection.selected_rate.(v))

let churned_pairs t = t.churned_pairs

let iter_homes t f =
  Arena.Int_table.iter
    (fun key id ->
      let topic, v = Arena.decode_pair key in
      f ~topic ~subscriber:v ~vm:id)
    t.homes

(* The CBP insertion rule shared by reprovisioning, recovery, and delta
   application: pending pairs grouped per topic, most-free VM that can
   take a pair, fresh VMs on overflow. Returns how many VMs it deployed. *)
let place_pending (p : Problem.t) a homes pending =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let deployed = ref 0 in
  Hashtbl.iter
    (fun topic subs ->
      let ev = Workload.event_rate w topic in
      let subs = Array.of_list subs in
      let n = Array.length subs in
      let from = ref 0 in
      while !from < n do
        (* Most-free VM that can take a pair, lowest id on ties — an id
           scan over the flat residual arrays. *)
        let best = ref (-1) in
        for id = 0 to Allocation.num_vms a - 1 do
          if Allocation.max_pairs_that_fit a (Allocation.vm_at a id) ~topic ~ev ~eps > 0
             && (!best < 0 || Allocation.free_of a !best < Allocation.free_of a id)
          then best := id
        done;
        let vm =
          if !best >= 0 then Allocation.vm_at a !best
          else
              let vm = Allocation.deploy a in
              incr deployed;
              if Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps = 0 then
                raise
                  (Problem.Infeasible
                     (Printf.sprintf
                        "topic %d: a single pair needs %g bandwidth but BC is %g" topic
                        (2. *. ev) p.Problem.capacity));
              vm
        in
        let k = min (Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps) (n - !from) in
        Allocation.place a vm ~topic ~ev ~subscribers:subs ~from:!from ~count:k;
        let id = Allocation.vm_id vm in
        for i = !from to !from + k - 1 do
          Arena.Int_table.set homes (home_key ~topic ~subscriber:subs.(i)) id
        done;
        from := !from + k
      done)
    pending;
  !deployed

let resolve t (p' : Problem.t) ~dirty_subscribers ~old_pairs ~old_vms =
  let r = Solver.solve ~config:t.config ~domains:t.domains p' in
  t.problem <- p';
  t.selection <- r.Solver.selection;
  t.allocation <- r.Solver.allocation;
  rebuild_homes t.homes t.allocation;
  t.churned_pairs <- 0;
  {
    pairs_kept = 0;
    pairs_added = r.Solver.selection.Selection.num_pairs;
    pairs_removed = old_pairs;
    pairs_evicted = 0;
    vms_added = r.Solver.num_vms;
    vms_removed = old_vms;
    dirty_subscribers;
    resolved = true;
  }

let retarget t ?dirty (p' : Problem.t) =
  let w' = p'.Problem.workload in
  let old_w = t.problem.Problem.workload in
  let n = Workload.num_subscribers w' in
  let dirty = match dirty with Some d -> d | None -> Array.make n true in
  let old_selection = t.selection in
  let old_n = Array.length old_selection.Selection.chosen in
  let old_pairs = old_selection.Selection.num_pairs in
  let old_vms = Allocation.num_vms t.allocation in
  let dirty_subscribers =
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dirty
  in
  let selection = Selection.reselect p' ~previous:old_selection ~dirty in
  (* Diff the selections over the dirty subscribers only: clean ones
     share their arrays with [old_selection] by construction. *)
  let removals = ref [] in
  let additions = ref [] in
  for v = n - 1 downto 0 do
    if dirty.(v) then begin
      let oldc = if v < old_n then old_selection.Selection.chosen.(v) else [||] in
      let newc = selection.Selection.chosen.(v) in
      let ko = Array.length oldc and kn = Array.length newc in
      let i = ref 0 and j = ref 0 in
      while !i < ko || !j < kn do
        if !i < ko && (!j >= kn || oldc.(!i) < newc.(!j)) then begin
          removals := (oldc.(!i), v) :: !removals;
          incr i
        end
        else if !j < kn && (!i >= ko || newc.(!j) < oldc.(!i)) then begin
          additions := (newc.(!j), v) :: !additions;
          incr j
        end
        else begin
          incr i;
          incr j
        end
      done
    end
  done;
  let pairs_removed = List.length !removals in
  let pairs_added = List.length !additions in
  t.churned_pairs <- t.churned_pairs + pairs_removed + pairs_added;
  let budget =
    t.drift_threshold *. float_of_int (max 1 selection.Selection.num_pairs)
  in
  if float_of_int t.churned_pairs > budget then
    resolve t p' ~dirty_subscribers ~old_pairs ~old_vms
  else begin
    let old_capacity = t.problem.Problem.capacity in
    t.problem <- p';
    t.selection <- selection;
    (* A changed BC invalidates the fleet's fixed per-VM capacity:
       re-register every placement against the new one (loads still under
       the old rates; they are re-priced below). *)
    if p'.Problem.capacity <> old_capacity then begin
      t.allocation <-
        clone_allocation ~capacity:p'.Problem.capacity old_w t.allocation;
      rebuild_homes t.homes t.allocation
    end;
    let a = t.allocation in
    (* Drop deselected pairs first, under the old rate bookkeeping (a
       removed pair may reference a topic the new workload no longer
       has, and VM loads still carry the old rates at this point). *)
    List.iter
      (fun (topic, v) ->
        let key = home_key ~topic ~subscriber:v in
        let id = Arena.Int_table.find t.homes key in
        if id >= 0 then begin
          ignore
            (Allocation.remove a (Allocation.vm_at a id) ~topic
               ~ev:(Workload.event_rate old_w topic) ~subscriber:v);
          Arena.Int_table.remove t.homes key
        end
        (* not placed: tolerated *))
      !removals;
    (* Re-price the fleet if any surviving topic's rate moved. *)
    let old_rates = Workload.event_rates old_w in
    let new_rates = Workload.event_rates w' in
    let rates_changed = ref (Array.length new_rates < Array.length old_rates) in
    for i = 0 to min (Array.length old_rates) (Array.length new_rates) - 1 do
      if old_rates.(i) <> new_rates.(i) then rates_changed := true
    done;
    if !rates_changed then Allocation.rebuild_loads a ~event_rates:new_rates;
    (* Evict from VMs pushed over capacity: keep taking a pair of the
       highest-rate topic on the VM until it fits again (its incoming
       stream disappears with the last pair, so this converges). *)
    let pending : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    let pend topic v =
      Hashtbl.replace pending topic
        (v :: Option.value ~default:[] (Hashtbl.find_opt pending topic))
    in
    let eps = Problem.epsilon p' in
    let pairs_evicted = ref 0 in
    Array.iter
      (fun vm ->
        while Allocation.load vm > p'.Problem.capacity +. eps do
          let worst = ref None in
          List.iter
            (fun topic ->
              let ev = Workload.event_rate w' topic in
              match !worst with
              | Some (_, ev') when ev' >= ev -> ()
              | _ -> worst := Some (topic, ev))
            (Allocation.topics_on vm);
          match !worst with
          | None -> failwith "Engine: over-capacity VM with no topics"
          | Some (topic, ev) -> (
              match Allocation.subscribers_of_topic_on vm topic with
              | [] -> failwith "Engine: topic listed but empty"
              | v :: _ ->
                  ignore (Allocation.remove a vm ~topic ~ev ~subscriber:v);
                  Arena.Int_table.remove t.homes (home_key ~topic ~subscriber:v);
                  pend topic v;
                  incr pairs_evicted)
        done)
      (Allocation.vms a);
    List.iter (fun (topic, v) -> pend topic v) !additions;
    let deployed = place_pending p' a t.homes pending in
    if Array.exists (fun vm -> Allocation.num_pairs_on vm = 0) (Allocation.vms a)
    then begin
      let compacted, mapping = Allocation.compact a in
      t.allocation <- compacted;
      (* Every surviving home points at a VM with pairs, so its mapping
         entry is a valid new id. *)
      Arena.Int_table.map_values_inplace (fun id -> mapping.(id)) t.homes
    end;
    let after = Allocation.num_vms t.allocation in
    {
      pairs_kept = old_pairs - pairs_removed;
      pairs_added;
      pairs_removed;
      pairs_evicted = !pairs_evicted;
      vms_added = deployed;
      vms_removed = old_vms + deployed - after;
      dirty_subscribers;
      resolved = false;
    }
  end

(* Which subscribers could Stage 1 answer differently for? Exactly those
   whose inputs to [Selection.gsp_subscriber] changed: their interest
   set, or the rate of a topic they follow. Everyone else provably keeps
   their old selection, which is what makes [reselect] exact. *)
let compute_dirty t deltas w' =
  let old_w = t.problem.Problem.workload in
  let old_n = Workload.num_subscribers old_w in
  let old_topics = Workload.num_topics old_w in
  let n = Workload.num_subscribers w' in
  let dirty = Array.make n false in
  for v = old_n to n - 1 do
    dirty.(v) <- true
  done;
  List.iter
    (fun d ->
      match d with
      | Delta.Subscribe { subscriber; _ } | Delta.Unsubscribe { subscriber; _ } ->
          dirty.(subscriber) <- true
      | Delta.Rate_change { topic; rate } ->
          (* A topic born earlier in this same batch has only followers
             that subscribed in the batch — already dirty. *)
          if topic < old_topics && Workload.event_rate old_w topic <> rate then
            Array.iter (fun v -> dirty.(v) <- true) (Workload.followers old_w topic)
      | Delta.New_topic _ | Delta.New_subscriber _ -> ())
    deltas;
  dirty

let apply t deltas =
  Mcss_obs.Gc_phase.measure "engine.apply" @@ fun () ->
  let w = t.problem.Problem.workload in
  (* [compute_dirty] needs the old workload's followers anyway; forcing
     them before the delta lets [Delta.apply] evolve the cache into the
     new workload instead of every batch rebuilding it from scratch. *)
  if Workload.num_topics w > 0 then ignore (Workload.followers w 0);
  let w' = Delta.apply w deltas in
  let p' =
    Problem.create ~workload:w' ~tau:t.problem.Problem.tau
      ~capacity:t.problem.Problem.capacity t.problem.Problem.costs
  in
  let dirty = compute_dirty t deltas w' in
  retarget t ~dirty p'

let fail t ~failed =
  let p = t.problem in
  let w = p.Problem.workload in
  let old_vms = Allocation.vms t.allocation in
  let dead = Hashtbl.create 8 in
  List.iter
    (fun id -> if id >= 0 && id < Array.length old_vms then Hashtbl.replace dead id ())
    failed;
  (* Survivors keep their placements; the dead VMs' pairs go to the
     pending pool. *)
  let a = Allocation.create ~capacity:p.Problem.capacity in
  let pending : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let pairs_rehomed = ref 0 in
  let survivors = ref 0 in
  Array.iter
    (fun vm ->
      let id = Allocation.vm_id vm in
      if Hashtbl.mem dead id then
        Allocation.iter_vm_pairs vm (fun topic v ->
            incr pairs_rehomed;
            Hashtbl.replace pending topic
              (v :: Option.value ~default:[] (Hashtbl.find_opt pending topic)))
      else begin
        incr survivors;
        let copy = Allocation.deploy a in
        List.iter
          (fun topic ->
            let subs = Array.of_list (Allocation.subscribers_of_topic_on vm topic) in
            Allocation.place a copy ~topic ~ev:(Workload.event_rate w topic)
              ~subscribers:subs ~from:0 ~count:(Array.length subs))
          (Allocation.topics_on vm)
      end)
    old_vms;
  let before_placement = Allocation.num_vms a in
  t.allocation <- a;
  rebuild_homes t.homes a;
  ignore (place_pending p a t.homes pending);
  {
    vms_lost = Array.length old_vms - !survivors;
    pairs_rehomed = !pairs_rehomed;
    vms_added = Allocation.num_vms a - before_placement;
  }

(* Can [src]'s whole content move into the other VMs? Plan against a
   snapshot of their free capacities and topic presence; commit only on a
   complete drain so bandwidth never grows without freeing the VM. *)
let plan_drain (p : Problem.t) a src =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  (* Only non-empty peers may receive: refilling a previously drained VM
     would undo the work, and excluding empties guarantees every
     successful drain strictly shrinks the set of occupied VMs (so the
     outer loop terminates). *)
  let others =
    Array.of_list
      (List.filter
         (fun vm ->
           Allocation.vm_id vm <> Allocation.vm_id src && Allocation.num_pairs_on vm > 0)
         (Array.to_list (Allocation.vms a)))
  in
  let free = Array.map (fun vm -> Allocation.free a vm) others in
  let groups =
    List.map
      (fun topic ->
        (topic, Array.of_list (Allocation.subscribers_of_topic_on src topic)))
      (Allocation.topics_on src)
  in
  (* Smallest groups (by outgoing volume) first, then by topic id. *)
  let groups =
    let vol (t, s) = float_of_int (Array.length s) *. Workload.event_rate w t in
    List.sort
      (fun ((ta, _) as a) ((tb, _) as b) -> compare (vol a, ta) (vol b, tb))
      groups
  in
  let hosts = Hashtbl.create 64 in
  Array.iteri
    (fun i vm ->
      List.iter (fun t -> Hashtbl.replace hosts (i, t) ()) (Allocation.topics_on vm))
    others;
  let moves = ref [] in
  let ok = ref true in
  List.iter
    (fun (topic, subs) ->
      if !ok then begin
        let ev = Workload.event_rate w topic in
        let n = Array.length subs in
        let from = ref 0 in
        while !from < n && !ok do
          (* Most free first among those that can take a pair. *)
          let best = ref (-1) in
          Array.iteri
            (fun i _ ->
              let incoming = if Hashtbl.mem hosts (i, topic) then 0. else ev in
              if free.(i) +. eps -. incoming >= ev then
                match !best with
                | -1 -> best := i
                | b -> if free.(i) > free.(b) then best := i)
            others;
          match !best with
          | -1 -> ok := false
          | i ->
              let incoming = if Hashtbl.mem hosts (i, topic) then 0. else ev in
              let k =
                min (n - !from)
                  (int_of_float (floor ((free.(i) +. eps -. incoming) /. ev)))
              in
              free.(i) <- free.(i) -. (float_of_int k *. ev) -. incoming;
              Hashtbl.replace hosts (i, topic) ();
              moves := (Allocation.vm_id others.(i), topic, ev, subs, !from, k) :: !moves;
              from := !from + k
        done
      end)
    groups;
  if !ok then Some !moves else None

let consolidate ?(max_moves = 10_000) t =
  let p = t.problem in
  let capacity = p.Problem.capacity and w = p.Problem.workload in
  (* Drain a clone: plans handed out by [plan] share the live fleet. *)
  let a = clone_allocation ~capacity w t.allocation in
  let moved = ref 0 in
  let drained = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    (* Least-loaded non-empty VM that fully drains. *)
    let candidates =
      Array.to_list (Allocation.vms a)
      |> List.filter (fun vm -> Allocation.num_pairs_on vm > 0)
      |> List.sort (fun x y -> compare (Allocation.load x) (Allocation.load y))
    in
    let rec try_candidates = function
      | [] -> ()
      | src :: rest -> (
          if Allocation.num_pairs_on src + !moved > max_moves then try_candidates rest
          else
            match plan_drain p a src with
            | None -> try_candidates rest
            | Some moves ->
                List.iter
                  (fun (target_id, topic, ev, subs, from, k) ->
                    for i = from to from + k - 1 do
                      ignore (Allocation.remove a src ~topic ~ev ~subscriber:subs.(i))
                    done;
                    let target = (Allocation.vms a).(target_id) in
                    Allocation.place a target ~topic ~ev ~subscribers:subs ~from
                      ~count:k;
                    moved := !moved + k)
                  moves;
                incr drained;
                continue_ := true)
    in
    try_candidates candidates
  done;
  if !drained > 0 then begin
    (* Adopt the compacted fleet the way [of_plan] adopts a plan. *)
    let compacted, _ = Allocation.compact a in
    t.allocation <- clone_allocation ~capacity w compacted;
    rebuild_homes t.homes t.allocation;
    t.churned_pairs <- 0
  end;
  {
    pairs_kept = 0;
    pairs_added = 0;
    pairs_removed = 0;
    pairs_evicted = !moved;
    vms_added = 0;
    vms_removed = !drained;
    dirty_subscribers = 0;
    resolved = false;
  }
