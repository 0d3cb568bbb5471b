module Clock = Mcss_obs.Clock

type span = {
  id : int;
  parent : int;
  op : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  minor_words : float;
  major_words : float;
}

type t = {
  on : bool;
  base : int;
  mutable recorded : span list;
  mutable stack : (int * int) list;  (* open (span id, op id), innermost first *)
  mutable next_id : int;
  mutable next_op : int;
}

let stride = 1_000_000_000

let create ?(namespace = 0) on =
  { on; base = namespace * stride; recorded = []; stack = []; next_id = 0; next_op = 0 }

let enabled t = t.on

let fresh_id t =
  let id = t.base + t.next_id in
  t.next_id <- t.next_id + 1;
  id

let fresh_op t =
  let op = t.base + t.next_op in
  t.next_op <- t.next_op + 1;
  op

let record t ~root name f =
  if not t.on then f ()
  else
    let id = fresh_id t in
    let parent, op =
      match t.stack with
      | (p, op) :: _ when not root -> (p, op)
      | _ -> (-1, fresh_op t)
    in
    t.stack <- (id, op) :: t.stack;
    let g0 = Gc.quick_stat () in
    let start_ns = Clock.now_ns () in
    let finish () =
      let stop_ns = Clock.now_ns () in
      let g1 = Gc.quick_stat () in
      t.stack <- List.tl t.stack;
      t.recorded <-
        {
          id;
          parent;
          op;
          name;
          start_ns;
          stop_ns;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
        }
        :: t.recorded
    in
    Fun.protect ~finally:finish f

let op t name f = record t ~root:true name f
let span t name f = record t ~root:false name f

let by_start a b = compare (a.start_ns, a.id) (b.start_ns, b.id)
let spans t = List.sort by_start t.recorded
let merge ts = List.sort by_start (List.concat_map (fun t -> t.recorded) ts)
let duration s = Int64.sub s.stop_ns s.start_ns

let self_ns spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value ~default:0L (Hashtbl.find_opt covered s.parent) in
        Hashtbl.replace covered s.parent (Int64.add c (duration s)))
    spans;
  List.map
    (fun s ->
      (s, Int64.sub (duration s) (Option.value ~default:0L (Hashtbl.find_opt covered s.id))))
    spans

(* Per operation (in first-seen order), the sum of the values of the
   spans named [name]. *)
let per_op name pairs =
  let sums = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun ((s : span), v) ->
      if s.name = name then (
        if not (Hashtbl.mem sums s.op) then order := s.op :: !order;
        Hashtbl.replace sums s.op
          (v +. Option.value ~default:0. (Hashtbl.find_opt sums s.op))))
    pairs;
  List.rev_map (Hashtbl.find sums) !order

let layer_seconds spans name =
  per_op name (List.map (fun (s, ns) -> (s, Clock.ns_to_seconds ns)) (self_ns spans))

let layer_words spans name kind =
  per_op name
    (List.map
       (fun s -> (s, match kind with `Minor -> s.minor_words | `Major -> s.major_words))
       spans)

let roots spans name = List.filter (fun s -> s.parent < 0 && s.name = name) spans

let uncovered_fraction spans name =
  let selfs = self_ns spans in
  let self_sum, wall =
    List.fold_left
      (fun (a, w) ((s : span), self) ->
        if s.parent < 0 && s.name = name then
          (Int64.add a self, Int64.add w (duration s))
        else (a, w))
      (0L, 0L) selfs
  in
  if wall = 0L then nan else Int64.to_float self_sum /. Int64.to_float wall

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun ((s : span), self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%Ld,\"minor_words\":%.0f,\"major_words\":%.0f}\n"
            s.id s.parent s.op s.name s.start_ns s.stop_ns self s.minor_words
            s.major_words)
        (self_ns spans))
