module Json = Mcss_json

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  mutable closed : bool;
}

let connect address =
  let sockaddr, domain =
    match address with
    | Server.Unix_socket path -> (Unix.ADDR_UNIX path, Unix.PF_UNIX)
    | Server.Tcp (host, port) -> (
        match
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
            | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
            | _ -> raise Not_found)
        with
        | inet -> (Unix.ADDR_INET (inet, port), Unix.PF_INET)
        | exception Not_found ->
            raise (Unix.Unix_error (Unix.EINVAL, "resolve", host)))
  in
  match
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd sockaddr
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | fd -> Ok { fd; ic = Unix.in_channel_of_descr fd; closed = false }
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s"
           (Server.address_to_string address)
           (Unix.error_message err))

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Closing the channel closes the underlying fd. *)
    try close_in t.ic with Sys_error _ -> ()
  end

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let request t json =
  if t.closed then Error "connection is closed"
  else
    match
      write_all t.fd (Json.to_string json ^ "\n");
      input_line t.ic
    with
    | line -> (
        match Json.parse line with
        | Ok reply -> Ok reply
        | Error m -> Error (Printf.sprintf "unparseable reply: %s" m))
    | exception End_of_file ->
        close t;
        Error "server closed the connection"
    | exception Unix.Unix_error (err, _, _) ->
        close t;
        Error (Unix.error_message err)
    | exception Sys_error m ->
        close t;
        Error m
    | exception Sys_blocked_io ->
        (* SO_RCVTIMEO expired under the channel: the peer is up but
           silent (a blackholed link, not a dead process). *)
        close t;
        Error "receive timed out"

let request_envelope t env = request t (Protocol.encode env)

let with_connection address f =
  match connect address with
  | Error _ as e -> e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* ----- resilient one-shot call ----- *)

let receive_timeout t seconds =
  try Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO seconds
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* Which replies are worth another attempt: the server shed us
   ([overloaded]) or blew the deadline ([timeout] — the plan stays
   cached server-side, so the retry is usually a hit). Everything else
   is a real answer the caller must see. *)
let transient_reply reply =
  match Protocol.response_error reply with
  | Some (Some Protocol.Overloaded, m) -> Some ("overloaded: " ^ m)
  | Some (Some Protocol.Timeout, m) -> Some ("timeout: " ^ m)
  | _ -> None

let call ?obs ?sleep ?(rng = Mcss_prng.Rng.create 0)
    ?(policy = Retry.default_policy) ?route address (env : Protocol.envelope) =
  let replayable = Protocol.idempotent env.Protocol.request in
  (* Each attempt re-resolves its target: by default the given address,
     but a failover-aware caller (the router) plugs in [route] to point
     the retry at a different member — a mid-reply disconnect used to be
     retried against the very address that just died. *)
  let route =
    match route with Some f -> f | None -> fun ~attempt:_ -> address
  in
  let env =
    match (env.Protocol.deadline_ms, policy.Retry.attempt_timeout_ms) with
    | None, Some ms -> { env with Protocol.deadline_ms = Some ms }
    | _ -> env
  in
  Retry.run ?obs ?sleep ~rng ~policy (fun ~attempt ->
      (* A fresh connection per attempt: the previous one may be
         half-dead (reset mid-frame, server restarting). *)
      let attempt_result =
        with_connection (route ~attempt) (fun t ->
            (match policy.Retry.attempt_timeout_ms with
            | Some ms -> receive_timeout t (ms /. 1000.)
            | None -> ());
            request_envelope t env)
      in
      match attempt_result with
      | Ok reply -> (
          match Protocol.response_error reply with
          (* A [not_leader] refusal proves the member did nothing, so a
             retry is safe even for non-idempotent verbs — and each
             attempt re-resolves [route], so a failover-aware caller gets
             steered to the new leader instead of surfacing the refusal
             as a hard error. The last attempt returns the reply itself:
             the structured error (and its exit-code mapping) must
             survive when the shard genuinely has no leader. *)
          | Some (Some Protocol.Not_leader, m)
            when attempt < policy.Retry.max_attempts ->
              Retry.Retry ("not_leader: " ^ m)
          | _ -> (
              match transient_reply reply with
              | Some m when replayable -> Retry.Retry m
              | _ -> Retry.Done reply))
      | Error m -> if replayable then Retry.Retry m else Retry.Give_up m)
