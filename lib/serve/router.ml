module Json = Mcss_json
module Workload = Mcss_workload.Workload
module Wio = Mcss_workload.Wio
module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter
module Rng = Mcss_prng.Rng

type member = { name : string; address : Server.address }
type shard = { shard_name : string; members : member list }

type config = {
  vnodes : int;
  health_period_s : float;
  policy : Retry.policy;
  auto_promote : bool;
  promote_after : int;
  log : string -> unit;
}

let default_config =
  {
    vnodes = 64;
    health_period_s = 1.;
    policy =
      {
        Retry.max_attempts = 4;
        base_ms = 25.;
        cap_ms = 500.;
        attempt_timeout_ms = Some 5000.;
      };
    auto_promote = false;
    promote_after = 2;
    log = ignore;
  }

(* Last known state of a member, written by the probe loop. [role],
   [epoch], and [last_index] survive a down-marking: the failover logic
   needs the dead leader's last known epoch to pick a fencing epoch that
   outranks it. *)
type probe = {
  up : bool;
  role : string;  (* "leader" | "follower" | "" before the first reply *)
  epoch : int;
  last_index : int;
  fails : int;  (* consecutive failed probes *)
}

let fresh_probe = { up = true; role = ""; epoch = 0; last_index = 0; fails = 0 }

type t = {
  config : config;
  obs : Registry.t;
  ring : Ring.t;
  shards : (string, shard) Hashtbl.t;
  rng : Rng.t;
  lock : Mutex.t;
      (** Guards [health], [rng], the mutable flags, and [shards]
          (member order is rewritten by automatic promotion). *)
  health : (string, probe) Hashtbl.t;  (* "shard/member" -> last probe *)
  mutable draining : bool;
  mutable forwarded : int;
  mutable health_domain : unit Domain.t option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let member_key shard m = shard.shard_name ^ "/" ^ m.name

let create ?obs ?(config = default_config) ?(seed = 0) shards =
  if shards = [] then invalid_arg "Router.create: no shards";
  List.iter
    (fun s ->
      if s.members = [] then
        invalid_arg
          (Printf.sprintf "Router.create: shard %S has no members" s.shard_name))
    shards;
  let obs = match obs with Some r -> r | None -> Registry.create () in
  let ring = Ring.create ~vnodes:config.vnodes (List.map (fun s -> s.shard_name) shards) in
  let tbl = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace tbl s.shard_name s) shards;
  let health = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun m -> Hashtbl.replace health (member_key s m) fresh_probe)
        s.members)
    shards;
  {
    config;
    obs;
    ring;
    shards = tbl;
    rng = Rng.create seed;
    lock = Mutex.create ();
    health;
    draining = false;
    forwarded = 0;
    health_domain = None;
  }

let draining t = locked t (fun () -> t.draining)
let obs t = t.obs

let shard_get t name = locked t (fun () -> Hashtbl.find t.shards name)

let shards_snapshot t =
  locked t (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.shards [])

let probe_of t shard m =
  locked t (fun () ->
      Option.value ~default:fresh_probe
        (Hashtbl.find_opt t.health (member_key shard m)))

let set_probe t shard m f =
  locked t (fun () ->
      let key = member_key shard m in
      let old =
        Option.value ~default:fresh_probe (Hashtbl.find_opt t.health key)
      in
      Hashtbl.replace t.health key (f old))

let set_health t shard m up =
  set_probe t shard m (fun p ->
      { p with up; fails = (if up then 0 else p.fails + 1) })

let healthy t shard m = (probe_of t shard m).up

(* ----- health checking ----- *)

let probe_policy =
  {
    Retry.max_attempts = 1;
    base_ms = 10.;
    cap_ms = 10.;
    attempt_timeout_ms = Some 1000.;
  }

let json_str j key = Json.member key j |> Fun.flip Option.bind Json.to_string_opt
let json_int j key = Json.member key j |> Fun.flip Option.bind Json.to_int_opt

let probe_member t shard m =
  let env =
    { Protocol.id = None; deadline_ms = None; request = Protocol.Health }
  in
  let rng = locked t (fun () -> Rng.create (Rng.int t.rng 0x3FFFFFFF)) in
  let outcome = Client.call ~rng ~policy:probe_policy m.address env in
  (match outcome.Retry.result with
  | Ok reply ->
      set_probe t shard m (fun p ->
          {
            up = true;
            fails = 0;
            role = Option.value ~default:p.role (json_str reply "role");
            epoch = Option.value ~default:p.epoch (json_int reply "epoch");
            last_index =
              Option.value ~default:p.last_index (json_int reply "last_index");
          })
  | Error _ -> set_health t shard m false);
  (probe_of t shard m).up

let probe_shard t shard = List.iter (fun m -> ignore (probe_member t shard m)) shard.members
let probe_all t = List.iter (fun s -> probe_shard t s) (shards_snapshot t)

let count t name help = Counter.inc (Registry.counter t.obs ~help name)

(* ----- automatic fenced failover ----- *)

(* Move [name] to the head of the shard's member list, so [update]s
   (leader-only) land on the member we just promoted or discovered. *)
let set_member_order t shard_name name =
  locked t (fun () ->
      match Hashtbl.find_opt t.shards shard_name with
      | None -> ()
      | Some s -> (
          match List.partition (fun m -> m.name = name) s.members with
          | [ m ], rest ->
              Hashtbl.replace t.shards shard_name { s with members = m :: rest }
          | _ -> ()))

(* One request to one member, no retries (promotion/demotion must not be
   replayed blindly against whoever answers). *)
let send_to t m request =
  let env = { Protocol.id = None; deadline_ms = None; request } in
  let rng = locked t (fun () -> Rng.create (Rng.int t.rng 0x3FFFFFFF)) in
  let outcome = Client.call ~rng ~policy:probe_policy m.address env in
  match outcome.Retry.result with
  | Ok reply when Protocol.response_ok reply -> Ok reply
  | Ok reply -> (
      match Protocol.response_error reply with
      | Some (_, m) -> Error m
      | None -> Error "refused")
  | Error m -> Error m

let cmp_caught_up (e1, i1) (e2, i2) = compare (e1, i1) (e2, i2)

(* Drive one shard toward a single, fenced leader. Called from the
   health loop (and synchronously from [forward_update] after a leader
   failure) when [auto_promote] is on; probes must be fresh.

   Two jobs: (a) the configured leader is dead past the threshold and a
   follower is up — promote the most caught-up follower (highest
   (epoch, last_index)) at an epoch above everything the cluster has
   reported, so the dead leader is fenced if it ever comes back; (b) two
   live members both claim to lead (a revived stale leader) — keep the
   higher (epoch, last_index) one and send the other a fenced demote. *)
let failover_shard t shard_name =
  let shard = shard_get t shard_name in
  let probed = List.map (fun m -> (m, probe_of t shard m)) shard.members in
  let max_epoch =
    List.fold_left (fun acc (_, p) -> max acc p.epoch) 0 probed
  in
  (* (b) fence duplicate leaders first so (a) never sees two. *)
  let leaders =
    List.filter (fun (_, p) -> p.up && p.role = "leader") probed
  in
  (match leaders with
  | _ :: _ :: _ ->
      let wm, wp =
        List.fold_left
          (fun ((_, bp) as best) ((_, p) as cand) ->
            if cmp_caught_up (p.epoch, p.last_index) (bp.epoch, bp.last_index) > 0
            then cand
            else best)
          (List.hd leaders) (List.tl leaders)
      in
      List.iter
        (fun (m, p) ->
          if m.name <> wm.name then begin
            let fence =
              if p.epoch < wp.epoch then wp.epoch else wp.epoch + 1
            in
            t.config.log
              (Printf.sprintf "shard %s: fencing stale leader %s at epoch %d"
                 shard_name m.name fence);
            count t "serve.router.fenced_demotions"
              "Stale duplicate leaders demoted by the router";
            match send_to t m (Protocol.Demote { epoch = fence }) with
            | Ok _ -> set_probe t shard m (fun p -> { p with role = "follower"; epoch = fence })
            | Error _ -> ()
          end)
        leaders;
      set_member_order t shard_name wm.name
  | [ (m, _) ] ->
      (* A single live leader is authoritative, wherever it is in the
         configured order (e.g. promoted while the router was away). *)
      set_member_order t shard_name m.name
  | [] -> ());
  (* (a) promote when the head of the (possibly just reordered) order is
     down past the threshold. *)
  let shard = shard_get t shard_name in
  match shard.members with
  | [] -> ()
  | leader :: followers -> (
      let lp = probe_of t shard leader in
      let candidates =
        List.filter_map
          (fun m ->
            let p = probe_of t shard m in
            if p.up && p.role <> "leader" then Some (m, p) else None)
          followers
      in
      if (not lp.up) && lp.fails >= t.config.promote_after && candidates <> []
      then begin
        let best, _ =
          List.fold_left
            (fun ((_, bp) as best) ((_, p) as cand) ->
              if
                cmp_caught_up (p.epoch, p.last_index) (bp.epoch, bp.last_index)
                > 0
              then cand
              else best)
            (List.hd candidates) (List.tl candidates)
        in
        let fence = max_epoch + 1 in
        t.config.log
          (Printf.sprintf
             "shard %s: leader %s down (%d probes); promoting %s at epoch %d"
             shard_name leader.name lp.fails best.name fence);
        match send_to t best (Protocol.Promote { epoch = Some fence }) with
        | Ok _ ->
            count t "serve.router.auto_promotions"
              "Followers promoted automatically after a dead leader";
            set_probe t shard best (fun p ->
                { p with role = "leader"; epoch = fence });
            set_member_order t shard_name best.name
        | Error m ->
            t.config.log
              (Printf.sprintf "shard %s: promotion of %s failed: %s" shard_name
                 best.name m)
      end)

let failover_all t =
  if t.config.auto_promote then
    List.iter (fun s -> failover_shard t s.shard_name) (shards_snapshot t)

let health_loop t () =
  let rec loop () =
    if draining t then ()
    else begin
      probe_all t;
      failover_all t;
      (* Sleep in small ticks so drain is prompt. *)
      let rec nap left =
        if left > 0. && not (draining t) then begin
          Unix.sleepf (Float.min 0.1 left);
          nap (left -. 0.1)
        end
      in
      nap t.config.health_period_s;
      loop ()
    end
  in
  loop ()

let start_health_checks t =
  locked t (fun () ->
      match t.health_domain with
      | Some _ -> ()
      | None -> t.health_domain <- Some (Domain.spawn (health_loop t)))

let join_health_checks t =
  match locked t (fun () -> t.health_domain) with
  | Some d ->
      Domain.join d;
      locked t (fun () -> t.health_domain <- None)
  | None -> ()

(* ----- forwarding ----- *)

let no_quorum t ~id shard =
  count t "serve.router.no_quorum" "Requests shed because a whole shard was down";
  Protocol.error_response ~id ~code:Protocol.No_quorum
    ~message:
      (Printf.sprintf "shard %s: no member reachable" shard.shard_name)
    ()

(* Candidate order for an idempotent request: leader first (its cache is
   authoritative and it can solve cold misses), then followers, with
   members that failed their last health probe pushed to the back —
   still tried, because a probe can be stale in either direction. *)
let candidates t shard =
  let up, down = List.partition (fun m -> healthy t shard m) shard.members in
  up @ down

let forward_idempotent t ~id shard env =
  let cands = Array.of_list (candidates t shard) in
  let n = Array.length cands in
  let policy =
    { t.config.policy with Retry.max_attempts = max t.config.policy.Retry.max_attempts (2 * n) }
  in
  let route ~attempt = cands.((attempt - 1) mod n).address in
  let rng = locked t (fun () -> Rng.create (Rng.int t.rng 0x3FFFFFFF)) in
  let outcome = Client.call ~obs:t.obs ~rng ~policy ~route cands.(0).address env in
  (match outcome.Retry.result with
  | Ok _ when outcome.Retry.attempts > 1 ->
      count t "serve.router.failovers"
        "Requests answered only after rerouting to another member"
  | _ -> ());
  match outcome.Retry.result with
  | Ok reply ->
      locked t (fun () -> t.forwarded <- t.forwarded + 1);
      reply
  | Error _ ->
      (* Every attempt (cycling all members) failed at the transport:
         mark them down and shed with a parseable verdict. *)
      List.iter (fun m -> set_health t shard m false) shard.members;
      no_quorum t ~id shard

(* [update] mutates the journal, so it goes to the leader (the current
   head of the member order) only — blind replay against a follower
   would be refused with [not_leader] anyway, and replay against a
   second leader could fork history. The member order is re-resolved on
   every attempt: a [not_leader] refusal or a dead leader means the
   order just changed (or is about to — with [auto_promote] the failover
   step is driven synchronously), and the refusal itself proves the
   server did nothing, so retrying the verb is safe. *)
let forward_update t ~id shard_name env =
  let rec attempt n =
    let shard = shard_get t shard_name in
    let leader = List.hd shard.members in
    let policy = { t.config.policy with Retry.max_attempts = 1 } in
    let rng = locked t (fun () -> Rng.create (Rng.int t.rng 0x3FFFFFFF)) in
    let outcome = Client.call ~obs:t.obs ~rng ~policy leader.address env in
    match outcome.Retry.result with
    | Ok reply -> (
        match Protocol.response_error reply with
        | Some (Some Protocol.Not_leader, _) when n > 0 ->
            (* The member order is stale: re-probe, let the failover
               logic find (or make) the real leader, and retry. *)
            count t "serve.router.not_leader_reroutes"
              "Updates rerouted after a not_leader refusal";
            probe_shard t shard;
            if t.config.auto_promote then failover_shard t shard_name;
            attempt (n - 1)
        | _ ->
            locked t (fun () -> t.forwarded <- t.forwarded + 1);
            reply)
    | Error m ->
        set_health t shard leader false;
        if t.config.auto_promote then begin
          (* Detection normally needs [promote_after] consecutive probe
             failures; a live update hitting a dead leader is evidence
             enough to re-probe immediately and, if the leader is still
             dead, count this failure toward the threshold. *)
          probe_shard t shard;
          failover_shard t shard_name;
          let shard' = shard_get t shard_name in
          if n > 0 && (List.hd shard'.members).name <> leader.name then
            attempt (n - 1)
          else if n > 0 then begin
            Unix.sleepf (t.config.health_period_s /. 2.);
            probe_shard t shard;
            failover_shard t shard_name;
            attempt (n - 1)
          end
          else no_quorum t ~id shard
        end
        else
          let followers = List.tl shard.members in
          let any_follower_up =
            List.exists (fun f -> probe_member t shard f) followers
          in
          if any_follower_up then
            (* The shard still has a live (unpromoted) member: the caller
               must promote it before updates can continue. *)
            Protocol.error_response ~id ~code:Protocol.Not_leader
              ~message:
                (Printf.sprintf
                   "shard %s: leader unreachable (%s); promote a follower to \
                    resume updates"
                   shard.shard_name m)
              ()
          else no_quorum t ~id shard
  in
  attempt 4

let shard_of_digest t digest = shard_get t (Ring.owner t.ring digest)

(* ----- request handling ----- *)

let handle_health t ~id =
  let members_total, members_up =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ p (total, ups) -> (total + 1, if p.up then ups + 1 else ups))
          t.health (0, 0))
  in
  Protocol.ok_response ~id
    [
      ("status", Json.String (if draining t then "draining" else "serving"));
      ("service", Json.String "mcss-plan-router");
      ("role", Json.String "router");
      ("shards", Json.Int (Hashtbl.length t.shards));
      ("members", Json.Int members_total);
      ("members_up", Json.Int members_up);
      ("pid", Json.Int (Unix.getpid ()));
    ]

let handle_stats t ~id =
  let shard_objs =
    List.fold_left
      (fun acc shard ->
        Json.Obj
          [
            ("shard", Json.String shard.shard_name);
            ( "members",
              Json.List
                (List.mapi
                   (fun i m ->
                     let p = probe_of t shard m in
                     Json.Obj
                       [
                         ("name", Json.String m.name);
                         ("address", Json.String (Server.address_to_string m.address));
                         ("role_hint", Json.String (if i = 0 then "leader" else "follower"));
                         ("role_seen", Json.String p.role);
                         ("epoch", Json.Int p.epoch);
                         ("last_index", Json.Int p.last_index);
                         ("up", Json.Bool p.up);
                       ])
                   shard.members) );
          ]
        :: acc)
      [] (shards_snapshot t)
  in
  let forwarded = locked t (fun () -> t.forwarded) in
  Protocol.ok_response ~id
    [
      ("service", Json.String "mcss-plan-router");
      ("draining", Json.Bool (draining t));
      ("auto_promote", Json.Bool t.config.auto_promote);
      ("forwarded", Json.Int forwarded);
      ("ring_points", Json.Int (Ring.points t.ring));
      ("shards", Json.List shard_objs);
    ]

let handle_metrics t ~id =
  Protocol.ok_response ~id
    [
      ("content_type", Json.String "text/plain; version=0.0.4");
      ("body", Json.String (Mcss_obs.Sink.prometheus t.obs));
    ]

let handle_shutdown t ~id =
  let forwarded = locked t (fun () -> t.draining <- true; t.forwarded) in
  Protocol.ok_response ~id
    [ ("draining", Json.Bool true); ("requests_forwarded", Json.Int forwarded) ]

(* A [load] must be routed by the digest of its content, which only
   exists router-side once the workload is parsed; a path is read here
   (the members may not share a filesystem) and forwarded inline. *)
let handle_load t ~id env source =
  let parsed =
    match source with
    | `Inline text -> (
        match Wio.of_string text with
        | w -> Ok w
        | exception Wio.Parse_error m -> Error m)
    | `Path path -> (
        match Wio.load path with
        | w -> Ok w
        | exception Sys_error m -> Error m
        | exception Wio.Parse_error m -> Error (path ^ ": " ^ m))
  in
  match parsed with
  | Error m -> Protocol.error_response ~id ~code:Protocol.Bad_request ~message:m ()
  | Ok w ->
      let digest = Service.digest_of_workload w in
      let shard = shard_of_digest t digest in
      let env =
        { env with Protocol.request = Protocol.Load (`Inline (Wio.to_string w)) }
      in
      forward_idempotent t ~id shard env

let handle t (env : Protocol.envelope) =
  let id = env.Protocol.id in
  match env.Protocol.request with
  | Protocol.Health -> handle_health t ~id
  | Protocol.Stats -> handle_stats t ~id
  | Protocol.Metrics -> handle_metrics t ~id
  | Protocol.Shutdown -> handle_shutdown t ~id
  | Protocol.Promote _ | Protocol.Demote _ ->
      Protocol.error_response ~id ~code:Protocol.Bad_request
        ~message:"promote/demote must be sent to a member, not the router" ()
  | Protocol.Drain | Protocol.Rehome _ | Protocol.Ledger ->
      Protocol.error_response ~id ~code:Protocol.Bad_request
        ~message:
          "dataplane control verbs go to a broker socket (mcss dataplane), \
           not the planning router"
        ()
  | Protocol.Load source -> handle_load t ~id env source
  | Protocol.Solve { digest; _ }
  | Protocol.Whatif { digest; _ }
  | Protocol.Chaos { digest; _ } ->
      forward_idempotent t ~id (shard_of_digest t digest) env
  | Protocol.Update { digest; _ } ->
      forward_update t ~id (shard_of_digest t digest).shard_name env

let handle_line t line =
  match Json.parse line with
  | Error m -> Protocol.error_response ~code:Protocol.Bad_request ~message:m ()
  | Ok j -> (
      match Protocol.decode j with
      | Error m ->
          Protocol.error_response ~id:(Json.member "id" j)
            ~code:Protocol.Bad_request ~message:m ()
      | Ok env -> (
          match handle t env with
          | reply -> reply
          | exception exn ->
              Protocol.error_response ~id:env.Protocol.id
                ~code:Protocol.Internal ~message:(Printexc.to_string exn) ()))

let run ?server_config t address =
  start_health_checks t;
  Server.run_handler
    ?config:server_config ~obs:t.obs ~name:"mcss route"
    ~draining:(fun () -> draining t)
    ~handle:(handle_line t) address;
  join_health_checks t
