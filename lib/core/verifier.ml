module Workload = Mcss_workload.Workload

type violation =
  | Over_capacity of { vm : int; load : float }
  | Load_mismatch of { vm : int; tracked : float; recomputed : float }
  | Unsatisfied of { subscriber : int; delivered : float; required : float }
  | Pair_not_selected of { topic : int; subscriber : int }
  | Pair_duplicated of { topic : int; subscriber : int }
  | Pair_missing of { topic : int; subscriber : int }

type report = {
  violations : violation list;
  num_vms : int;
  total_bandwidth : float;
  cost : float;
}

let pp_violation ppf = function
  | Over_capacity { vm; load } ->
      Format.fprintf ppf "VM %d over capacity: load %g" vm load
  | Load_mismatch { vm; tracked; recomputed } ->
      Format.fprintf ppf "VM %d load mismatch: tracked %g, recomputed %g" vm tracked
        recomputed
  | Unsatisfied { subscriber; delivered; required } ->
      Format.fprintf ppf "subscriber %d unsatisfied: delivered %g < required %g"
        subscriber delivered required
  | Pair_not_selected { topic; subscriber } ->
      Format.fprintf ppf "pair (%d, %d) placed but never selected" topic subscriber
  | Pair_duplicated { topic; subscriber } ->
      Format.fprintf ppf "pair (%d, %d) placed on more than one VM" topic subscriber
  | Pair_missing { topic; subscriber } ->
      Format.fprintf ppf "pair (%d, %d) selected but never placed" topic subscriber

(* The selection as a per-subscriber CSR, each row strictly ascending. A
   row that is not already is sorted and deduplicated on the way in, so
   nothing below trusts the order [Selection.chosen] documents. *)
let index_selection (s : Selection.t) =
  let strict (row : Workload.topic array) =
    let rec ascending i =
      i >= Array.length row || (row.(i - 1) < row.(i) && ascending (i + 1))
    in
    if ascending 1 then row else Array.of_list (List.sort_uniq Int.compare (Array.to_list row))
  in
  Arena.Csr.of_rows (Array.map strict s.Selection.chosen)

(* The index of [t] in the ascending run [topics.(lo) .. topics.(hi - 1)],
   or -1. *)
let rec find_in_row (topics : Workload.topic array) t lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = topics.(mid) in
    if x = t then mid
    else if x < t then find_in_row topics t (mid + 1) hi
    else find_in_row topics t lo mid

let verify (p : Problem.t) (s : Selection.t) a =
  let w = p.Problem.workload in
  let rates = Workload.event_rates w in
  let eps = Problem.epsilon p in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let { Arena.Csr.offs = offsets; data = topics } = index_selection s in
  let rows = Array.length offsets - 1 in
  (* The slot of selected pair (t, v) in [topics], or -1 if unselected. *)
  let slot t v =
    if v >= 0 && v < rows then find_in_row topics t offsets.(v) offsets.(v + 1) else -1
  in
  (* Placements seen per selected pair, and per unselected pair — the
     latter only ever touched on the error path. *)
  let copies = Array.make (Array.length topics) 0 in
  let foreign : (Workload.topic * Workload.subscriber, int) Hashtbl.t = Hashtbl.create 8 in
  let delivered = Array.make (Workload.num_subscribers w) 0. in
  (* The last VM that contributed topic [t]'s incoming stream. *)
  let last_vm = Array.make (Workload.num_topics w) (-1) in
  (* Unboxed accumulators: outgoing, incoming, total bandwidth. *)
  let acc = [| 0.; 0.; 0. |] in
  Allocation.iter_vms a (fun vm ->
      let id = Allocation.vm_id vm in
      acc.(0) <- 0.;
      acc.(1) <- 0.;
      Allocation.iter_vm_pairs vm (fun t v ->
          let ev = rates.(t) in
          acc.(0) <- acc.(0) +. ev;
          if last_vm.(t) <> id then begin
            last_vm.(t) <- id;
            acc.(1) <- acc.(1) +. ev
          end;
          let i = slot t v in
          let n =
            if i >= 0 then copies.(i)
            else Option.value (Hashtbl.find_opt foreign (t, v)) ~default:0
          in
          if n = 0 then delivered.(v) <- delivered.(v) +. ev
          else if n = 1 then add (Pair_duplicated { topic = t; subscriber = v });
          if i >= 0 then copies.(i) <- n + 1
          else begin
            Hashtbl.replace foreign (t, v) (n + 1);
            add (Pair_not_selected { topic = t; subscriber = v })
          end);
      let recomputed = acc.(0) +. acc.(1) in
      acc.(2) <- acc.(2) +. recomputed;
      if recomputed > p.Problem.capacity +. eps then
        add (Over_capacity { vm = id; load = recomputed });
      if Float.abs (recomputed -. Allocation.load vm) > eps then
        add (Load_mismatch { vm = id; tracked = Allocation.load vm; recomputed }));
  for v = 0 to rows - 1 do
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      if copies.(i) = 0 then add (Pair_missing { topic = topics.(i); subscriber = v })
    done
  done;
  for v = 0 to Workload.num_subscribers w - 1 do
    let required = Problem.tau_v p v in
    if delivered.(v) +. eps < required then
      add (Unsatisfied { subscriber = v; delivered = delivered.(v); required })
  done;
  let total_bandwidth = acc.(2) in
  {
    violations = List.rev !violations;
    num_vms = Allocation.num_vms a;
    total_bandwidth;
    cost = Problem.cost p ~vms:(Allocation.num_vms a) ~bandwidth:total_bandwidth;
  }

let is_valid r = r.violations = []

let check_exn p s a =
  let r = verify p s a in
  if not (is_valid r) then begin
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    List.iter (fun v -> Format.fprintf ppf "%a@." pp_violation v) r.violations;
    Format.pp_print_flush ppf ();
    failwith (Printf.sprintf "Verifier: %d violation(s):\n%s" (List.length r.violations)
                (Buffer.contents buf))
  end;
  r
