module Json = Mcss_json
module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter

(* ----- wire format -----

   The follower drives. It connects to the leader's replication address
   and sends one JSON hello line:

     {"rep":"hello","last_index":N,"last_epoch":L,"epoch":E}

   [L] is the epoch of its last journal record and [E] the fencing epoch
   it has adopted. A leader whose own epoch is below [E] has been fenced
   by a newer promotion it never heard about: it refuses the stream with
   {"ok":false,"stale":true,"epoch":E} and demotes itself to follower on
   the spot. Otherwise the leader answers with one JSON header line,
   then switches the stream to binary CRC frames (the journal's own
   framing, one record per frame, each carrying its epoch):

     {"ok":true,"mode":"tail","from":N,"epoch":EL}
                                            records N+1, N+2, ... follow
     {"ok":true,"mode":"reset","base":B,"records":K,"epoch":EL}
                                            K full-state records follow,
                                            then live records B+1, ...
     {"ok":false,"message":...}             handshake refused

   A [tail] is only offered when the follower's (last_index, last_epoch)
   matches the leader's own record at that index — same length but a
   different epoch means the follower's tail was written by a fenced
   leader and is forced through a [reset], which truncates it.

   Indices never travel with the frames: records are dense and
   monotonic, so the follower numbers them by counting from the
   negotiated point. After applying each record the follower writes an
   {"ack":INDEX} line back on the same socket; the leader tracks the
   high-water mark per connection, and {!commit_gate} turns those marks
   into the quorum barrier [update]/[load] replies wait on. Any framing
   or CRC failure on either side simply drops the connection — the
   follower's journal keeps only whole verified frames, so the worst
   case is a truncated tail healed by the next handshake. *)

let rec eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> eintr f

(* Both sides write to sockets the peer may have torn or reset; a
   broken pipe must surface as EPIPE, not kill the process. *)
let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      let n = eintr (fun () -> Unix.write fd b off (len - off)) in
      go (off + n)
  in
  go 0

(* Read exactly [len] bytes. [`Stopped] when [stop] turned true while
   the socket was idle at a frame boundary-or-not — the caller treats a
   mid-frame stop as a dropped connection, never a half-applied one. *)
let read_exactly ~stop fd buf len =
  let rec go off =
    if off >= len then `Ok
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> `Eof
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if stop () then `Stopped else go off
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> `Eof
  in
  go 0

(* One frame off the socket: [`Record (epoch, payload)] with the CRC
   verified (it covers the epoch bytes too), or the reason the stream
   ended. *)
let read_frame ~stop fd =
  let header = Bytes.create Journal.header_bytes in
  match read_exactly ~stop fd header Journal.header_bytes with
  | (`Eof | `Stopped) as e -> e
  | `Ok ->
      let len = Int32.to_int (Bytes.get_int32_le header 0) in
      let crc = Bytes.get_int32_le header 4 in
      let epoch = Int64.to_int (Bytes.get_int64_le header 8) in
      if len < 0 || len > Journal.max_record_bytes || epoch < 0 then `Corrupt
      else
        let payload = Bytes.create len in
        (match read_exactly ~stop fd payload len with
        | (`Eof | `Stopped) as e -> e
        | `Ok ->
            let payload = Bytes.unsafe_to_string payload in
            if Journal.crc32 (Bytes.sub_string header 8 8 ^ payload) <> crc then
              `Corrupt
            else `Record (epoch, payload))

(* Read one newline-terminated line, byte-buffered, bounded. Used for
   the handshake and ack lines only — the record stream is frames. *)
let read_line_bounded ~stop ?(limit = 1 lsl 20) fd =
  let buf = Buffer.create 128 in
  let one = Bytes.create 1 in
  let rec go () =
    if Buffer.length buf > limit then `Too_long
    else
      match Unix.read fd one 0 1 with
      | 0 -> `Eof
      | _ ->
          let c = Bytes.get one 0 in
          if c = '\n' then `Line (Buffer.contents buf)
          else begin
            Buffer.add_char buf c;
            go ()
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if stop () then `Stopped else go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> `Eof
  in
  go ()

let set_rcvtimeo fd seconds =
  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* ----- leader side ----- *)

(* Per-follower fan-out queue, fed by the service's journal hook. The
   hook must never block (it runs under the journal lock), so the queue
   is bounded: a follower that cannot drain [queue_cap] records loses
   the connection and resyncs, instead of back-pressuring the leader. *)
let queue_cap = 1024

type sub = {
  q : (int * int * string) Queue.t;  (* index, epoch, payload *)
  m : Mutex.t;
  cv : Condition.t;
  mutable overflowed : bool;
  mutable acked : int;
      (* Highest index this follower has applied and fsynced (its
         {"ack":N} high-water mark); what {!commit_gate} counts. *)
}

type leader = {
  service : Service.t;
  listener : Unix.file_descr;
  obs : Registry.t;
  lock : Mutex.t;
  mutable subs : sub list;
  mutable closing : bool;
  mutable conn_fds : Unix.file_descr list;
  mutable conn_domains : unit Domain.t list;
  mutable acceptor : unit Domain.t option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let leader_closing t = locked t (fun () -> t.closing)

let subscribe t =
  let sub =
    { q = Queue.create (); m = Mutex.create (); cv = Condition.create ();
      overflowed = false; acked = 0 }
  in
  locked t (fun () -> t.subs <- sub :: t.subs);
  sub

let unsubscribe t sub =
  locked t (fun () -> t.subs <- List.filter (fun s -> s != sub) t.subs)

(* Next queued record, or [None] once the leader is closing or the
   queue overflowed (the connection must drop and the follower resync —
   a partial queue after overflow would hide a gap). *)
let rec sub_next t sub =
  Mutex.lock sub.m;
  let state =
    if sub.overflowed then `Overflow
    else match Queue.take_opt sub.q with
      | Some r -> `Record r
      | None -> `Empty
  in
  (match state with
  | `Empty when not (leader_closing t) -> Condition.wait sub.cv sub.m
  | _ -> ());
  Mutex.unlock sub.m;
  match state with
  | `Record r -> Some r
  | `Overflow -> None
  | `Empty -> if leader_closing t then None else sub_next t sub

let push_event t (Service.Appended { index; epoch; payload }) =
  let subs = locked t (fun () -> t.subs) in
  List.iter
    (fun s ->
      Mutex.lock s.m;
      if Queue.length s.q >= queue_cap then s.overflowed <- true
      else Queue.push (index, epoch, payload) s.q;
      Condition.signal s.cv;
      Mutex.unlock s.m)
    subs

let count t name help = Counter.inc (Registry.counter t.obs ~help name)

(* How many followers have acked record [index]. The leader's own fsync
   is not counted here — {!commit_gate} owes [quorum - 1] remote acks. *)
let acked_count t ~index =
  let subs = locked t (fun () -> t.subs) in
  List.fold_left
    (fun n s ->
      Mutex.lock s.m;
      let a = s.acked in
      Mutex.unlock s.m;
      if a >= index then n + 1 else n)
    0 subs

(* The quorum barrier {!Service}'s non-idempotent verbs wait on: block
   until [quorum - 1] followers have acked [index]. Polling (2 ms) keeps
   the ack readers free of any condition-variable protocol with this
   caller; quorum writes are control-plane rare. *)
let commit_gate t ~quorum ~timeout_ms ~index =
  let needed = quorum - 1 in
  if needed <= 0 then Ok ()
  else
    let deadline = Unix.gettimeofday () +. (timeout_ms /. 1000.) in
    let rec wait () =
      if leader_closing t then Error "replication hub is closing"
      else
        let acked = acked_count t ~index in
        if acked >= needed then Ok ()
        else if Unix.gettimeofday () > deadline then begin
          count t "serve.replication.quorum_timeouts"
            "Quorum waits that timed out";
          Error
            (Printf.sprintf
               "%d of %d required follower acks for record %d within %.0f ms"
               acked needed index timeout_ms)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    in
    wait ()

(* Serve one follower connection to completion. *)
let handle_follower t fd =
  set_rcvtimeo fd 0.2;
  let stop () = leader_closing t in
  let hello =
    match read_line_bounded ~stop fd with
    | `Line line -> (
        match Json.parse line with
        | Ok j
          when Json.member "rep" j
               |> Fun.flip Option.bind Json.to_string_opt
               = Some "hello" -> (
            let int key ~default =
              match
                Json.member key j |> Fun.flip Option.bind Json.to_int_opt
              with
              | Some n when n >= 0 -> Some n
              | Some _ -> None
              | None -> Some default
            in
            match (int "last_index" ~default:(-1), int "last_epoch" ~default:0,
                   int "epoch" ~default:0)
            with
            | Some n, Some le, Some e when n >= 0 -> Ok (n, le, e)
            | _ -> Error "hello carries no usable last_index/epochs")
        | Ok _ -> Error "expected a {\"rep\":\"hello\",...} line"
        | Error m -> Error ("unparseable hello: " ^ m))
    | `Eof | `Stopped -> Error "connection ended before hello"
    | `Too_long -> Error "hello line too long"
  in
  let refuse fields =
    try write_all fd (Json.to_string (Json.Obj (("ok", Json.Bool false) :: fields)) ^ "\n")
    with Unix.Unix_error _ -> ()
  in
  match hello with
  | Error message -> refuse [ ("message", Json.String message) ]
  | Ok (follower_last, follower_last_epoch, follower_epoch) ->
      let own_epoch = Service.epoch t.service in
      if follower_epoch > own_epoch then begin
        (* The dialing follower has adopted a newer promotion than we
           ever heard about: we are the stale leader. Fence ourselves —
           demote and refuse, so we stop accepting writes *before* the
           follower could mirror anything from us. *)
        count t "serve.replication.fenced"
          "Streams refused because this leader's epoch was stale";
        ignore (Service.demote t.service ~epoch:follower_epoch);
        refuse
          [
            ("stale", Json.Bool true);
            ("epoch", Json.Int follower_epoch);
            ( "message",
              Json.String
                (Printf.sprintf
                   "leader epoch %d fenced by follower epoch %d; demoted"
                   own_epoch follower_epoch) );
          ]
      end
      else begin
        (* Subscribe before reading the journal: anything appended from
           here on lands in the queue, anything before is on disk, and
           the overlap is deduplicated by index below. *)
        let sub = subscribe t in
        let conn_done = Atomic.make false in
        let ack_stop () = stop () || Atomic.get conn_done in
        (* Acks ride the same socket in the other direction; a dedicated
           reader keeps them flowing while this domain streams frames. *)
        let acker =
          Domain.spawn (fun () ->
              let rec loop () =
                match read_line_bounded ~stop:ack_stop ~limit:4096 fd with
                | `Line line ->
                    (match Json.parse line with
                    | Ok j -> (
                        match
                          Json.member "ack" j
                          |> Fun.flip Option.bind Json.to_int_opt
                        with
                        | Some n ->
                            Mutex.lock sub.m;
                            if n > sub.acked then sub.acked <- n;
                            Mutex.unlock sub.m
                        | None -> ())
                    | Error _ -> ());
                    loop ()
                | `Eof | `Stopped | `Too_long -> ()
              in
              try loop () with Unix.Unix_error _ | Sys_error _ -> ())
        in
        Fun.protect
          ~finally:(fun () ->
            unsubscribe t sub;
            Atomic.set conn_done true;
            Domain.join acker)
          (fun () ->
            (* Same length is not enough: the record at the follower's
               last index must also carry the epoch the follower thinks
               it does, or its tail was written by a fenced leader and
               must be truncated via a reset. *)
            let diverged =
              follower_last > 0
              &&
              match Service.journal_epoch_at t.service ~index:follower_last with
              | Some e -> e <> follower_last_epoch
              | None -> false
            in
            if diverged then
              count t "serve.replication.divergent_tails"
                "Follower tails that mismatched by epoch and were reset";
            let tail_records =
              if diverged then Error `Resync
              else Service.journal_read_from t.service ~index:follower_last
            in
            let header, backlog, sent0 =
              match tail_records with
              | Ok records ->
                  count t "serve.replication.tails"
                    "Incremental tail streams served";
                  ( Json.Obj
                      [
                        ("ok", Json.Bool true);
                        ("mode", Json.String "tail");
                        ("from", Json.Int follower_last);
                        ("epoch", Json.Int own_epoch);
                      ],
                    List.map (fun (_, e, p) -> (e, p)) records,
                    match List.rev records with
                    | (i, _, _) :: _ -> i
                    | [] -> follower_last )
              | Error `Resync ->
                  count t "serve.replication.resets"
                    "Full snapshot streams served";
                  let base, sync_epoch, payloads =
                    Service.sync_state t.service
                  in
                  ( Json.Obj
                      [
                        ("ok", Json.Bool true);
                        ("mode", Json.String "reset");
                        ("base", Json.Int base);
                        ("records", Json.Int (List.length payloads));
                        ("epoch", Json.Int sync_epoch);
                      ],
                    List.map (fun p -> (sync_epoch, p)) payloads,
                    base )
            in
            match
              write_all fd (Json.to_string header ^ "\n");
              List.iter
                (fun (epoch, p) -> write_all fd (Journal.frame ~epoch p))
                backlog
            with
            | exception (Unix.Unix_error _ | Sys_error _) -> ()
            | () ->
                let rec tail sent =
                  match sub_next t sub with
                  | None -> ()
                  | Some (index, _, _) when index <= sent -> tail sent
                  | Some (index, epoch, payload) -> (
                      match write_all fd (Journal.frame ~epoch payload) with
                      | () -> tail index
                      | exception (Unix.Unix_error _ | Sys_error _) -> ())
                in
                tail sent0)
      end

let accept_loop t () =
  let rec loop () =
    if leader_closing t then ()
    else begin
      (match eintr (fun () -> Unix.select [ t.listener ] [] [] 0.1) with
      | [ _ ], _, _ -> (
          match Unix.accept t.listener with
          | fd, _ ->
              let d =
                Domain.spawn (fun () ->
                    Fun.protect
                      ~finally:(fun () ->
                        try Unix.close fd with Unix.Unix_error _ -> ())
                      (fun () -> handle_follower t fd))
              in
              locked t (fun () ->
                  t.conn_fds <- fd :: t.conn_fds;
                  t.conn_domains <- d :: t.conn_domains)
          | exception Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

let start_leader ?obs ~service address =
  ignore_sigpipe ();
  let obs = match obs with Some r -> r | None -> Service.obs service in
  (match Service.journal_last_index service with
  | Some _ -> ()
  | None ->
      invalid_arg "Replication.start_leader: the leader needs a journal");
  let listener = Server.bind_listener address ~backlog:16 in
  let t =
    {
      service;
      listener;
      obs;
      lock = Mutex.create ();
      subs = [];
      closing = false;
      conn_fds = [];
      conn_domains = [];
      acceptor = None;
    }
  in
  Service.set_journal_hook service (Some (push_event t));
  t.acceptor <- Some (Domain.spawn (accept_loop t));
  t

let stop_leader t =
  let first =
    locked t (fun () ->
        let f = not t.closing in
        t.closing <- true;
        f)
  in
  if first then begin
    Service.set_journal_hook t.service None;
    Service.set_commit_gate t.service None;
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (match t.acceptor with Some d -> Domain.join d | None -> ());
    let subs, fds, domains =
      locked t (fun () -> (t.subs, t.conn_fds, t.conn_domains))
    in
    (* Wake blocked senders, then cut their sockets out from under them. *)
    List.iter
      (fun s ->
        Mutex.lock s.m;
        Condition.broadcast s.cv;
        Mutex.unlock s.m)
      subs;
    List.iter
      (fun fd ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()))
      fds;
    List.iter Domain.join domains
  end

(* ----- follower side ----- *)

let dial = function
  | Server.Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
  | Server.Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> raise (Unix.Unix_error (Unix.EINVAL, "getaddrinfo", host)))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (inet, port))
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd

(* One connection's worth of following: handshake, install the backlog,
   then apply the live tail until something breaks. Returns why. *)
let follow_once ~stop ~service fd =
  set_rcvtimeo fd 0.2;
  let last () = Option.value ~default:0 (Service.journal_last_index service) in
  write_all fd
    (Json.to_string
       (Json.Obj
          [
            ("rep", Json.String "hello");
            ("last_index", Json.Int (last ()));
            ( "last_epoch",
              Json.Int (Option.value ~default:0 (Service.journal_last_epoch service)) );
            ("epoch", Json.Int (Service.epoch service));
          ])
    ^ "\n");
  let header =
    match read_line_bounded ~stop fd with
    | `Line line -> (
        match Json.parse line with
        | Ok j -> Ok j
        | Error m -> Error ("unparseable header: " ^ m))
    | `Eof -> Error "connection ended before header"
    | `Stopped -> Error "stopped"
    | `Too_long -> Error "header line too long"
  in
  let ack index =
    write_all fd
      (Json.to_string (Json.Obj [ ("ack", Json.Int index) ]) ^ "\n")
  in
  let apply_stream () =
    (* Dense records: each frame is the successor of the local journal's
       last index, applied at the epoch the leader wrote it and acked
       back once it is on disk. Any apply failure is a divergence — drop
       and resync. *)
    let rec go () =
      if stop () then `Stopped
      else
        match read_frame ~stop fd with
        | `Eof -> `Eof
        | `Stopped -> `Stopped
        | `Corrupt -> `Corrupt
        | `Record (epoch, payload) -> (
            let index = last () + 1 in
            match Service.apply_replicated service ~index ~epoch payload with
            | Ok () ->
                ack index;
                go ()
            | Error m -> `Apply_failed m)
    in
    go ()
  in
  match header with
  | Error m -> `Handshake_failed m
  | Ok j -> (
      let str key = Json.member key j |> Fun.flip Option.bind Json.to_string_opt in
      let int key = Json.member key j |> Fun.flip Option.bind Json.to_int_opt in
      let leader_epoch = Option.value ~default:0 (int "epoch") in
      let ok =
        Json.member "ok" j |> Fun.flip Option.bind Json.to_bool_opt = Some true
      in
      if ok && leader_epoch < Service.epoch service then
        (* Mirroring a fenced leader would stamp records below our
           adopted epoch; refuse and wait for the router to re-point us
           (or for that leader to learn it was fenced). *)
        `Stale_leader
      else
        match (ok, str "mode") with
        | true, Some "tail" -> apply_stream ()
        | true, Some "reset" -> (
            match (int "base", int "records") with
            | Some base, Some k when base >= 0 && k >= 0 -> (
                let rec collect acc n =
                  if n = 0 then `Ok (List.rev acc)
                  else
                    match read_frame ~stop fd with
                    | `Record (_, p) -> collect (p :: acc) (n - 1)
                    | (`Eof | `Stopped | `Corrupt) as e -> e
                in
                match collect [] k with
                | `Ok payloads -> (
                    match
                      Service.reset_to_snapshot service ~base
                        ~epoch:leader_epoch payloads
                    with
                    | Ok () ->
                        ack base;
                        apply_stream ()
                    | Error m -> `Apply_failed m)
                | `Eof -> `Eof
                | `Stopped -> `Stopped
                | `Corrupt -> `Corrupt)
            | _ -> `Handshake_failed "reset header missing base/records")
        | _, _ -> (
            match str "message" with
            | Some m -> `Handshake_failed m
            | None -> `Handshake_failed "leader refused the stream"))

let follow ?obs ?(sleep = fun ms -> Unix.sleepf (ms /. 1000.))
    ?(reconnect_ms = 200.) ~service ~stop leader =
  ignore_sigpipe ();
  let obs = match obs with Some r -> r | None -> Service.obs service in
  let stop () = stop () || Service.role service = Service.Leader in
  let count name help = Counter.inc (Registry.counter obs ~help name) in
  let rec loop () =
    if stop () then ()
    else begin
      (match dial leader with
      | exception Unix.Unix_error _ ->
          count "serve.replication.connect_failures"
            "Follower dials that could not reach the leader"
      | fd ->
          count "serve.replication.connects" "Follower connections established";
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              match follow_once ~stop ~service fd with
              | exception (Unix.Unix_error _ | Sys_error _) ->
                  count "serve.replication.stream_errors"
                    "Replication streams dropped on a transport error"
              | `Stopped -> ()
              | `Eof | `Corrupt ->
                  count "serve.replication.stream_errors"
                    "Replication streams dropped on a transport error"
              | `Stale_leader ->
                  count "serve.replication.stale_leaders"
                    "Streams refused because the dialed leader's epoch was behind"
              | `Handshake_failed _ ->
                  count "serve.replication.handshake_failures"
                    "Replication handshakes refused or unparseable"
              | `Apply_failed _ ->
                  count "serve.replication.apply_failures"
                    "Replicated records that failed to apply (resync follows)"));
      if not (stop ()) then sleep reconnect_ms;
      loop ()
    end
  in
  loop ()
