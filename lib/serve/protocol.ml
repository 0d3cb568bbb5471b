module Json = Mcss_json

type solve_params = {
  tau : float;
  instance : string;
  bc_events : float option;
  config : string;
}

let default_params =
  { tau = 100.; instance = "c3.large"; bc_events = None; config = "(e) +cost-decision" }

type request =
  | Health
  | Load of [ `Inline of string | `Path of string ]
  | Solve of { digest : string; params : solve_params }
  | Update of { digest : string; params : solve_params; deltas : string }
  | Whatif of { digest : string; params : solve_params; taus : float list }
  | Chaos of {
      digest : string;
      params : solve_params;
      seed : int;
      epochs : int;
      zones : int;
      faults : string list;
    }
  | Stats
  | Metrics
  | Promote of { epoch : int option }
  | Demote of { epoch : int }
  | Shutdown
  | Drain
  | Rehome of { add : (int * int) list; remove : (int * int) list }
  | Ledger

type envelope = {
  id : Json.t option;
  deadline_ms : float option;
  request : request;
}

(* ----- decoding ----- *)

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let field_float j key ~default =
  match Json.member key j with
  | None -> Ok default
  | Some v -> (
      match Json.to_float_opt v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S must be a number" key))

let field_int j key ~default =
  match Json.member key j with
  | None -> Ok default
  | Some v -> (
      match Json.to_int_opt v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S must be an integer" key))

let field_string j key ~default =
  match Json.member key j with
  | None -> Ok default
  | Some v -> (
      match Json.to_string_opt v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S must be a string" key))

let required_string j key =
  match Json.member key j with
  | None -> Error (Printf.sprintf "field %S is required" key)
  | Some v -> (
      match Json.to_string_opt v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S must be a string" key))

let params_of j =
  let* tau = field_float j "tau" ~default:default_params.tau in
  let* instance = field_string j "instance" ~default:default_params.instance in
  let* config = field_string j "config" ~default:default_params.config in
  let* bc_events =
    match Json.member "bc_events" j with
    | None -> Ok None
    | Some raw -> (
        match Json.to_float_opt raw with
        | Some x -> Ok (Some x)
        | None -> Error "field \"bc_events\" must be a number")
  in
  if tau <= 0. then Error "field \"tau\" must be positive"
  else Ok { tau; instance; bc_events; config }

let decode j =
  let* verb = required_string j "req" in
  let id = Json.member "id" j in
  let* deadline_ms =
    match Json.member "deadline_ms" j with
    | None -> Ok None
    | Some v -> (
        match Json.to_float_opt v with
        | Some x when x > 0. -> Ok (Some x)
        | Some _ -> Error "field \"deadline_ms\" must be positive"
        | None -> Error "field \"deadline_ms\" must be a number")
  in
  let* request =
    match verb with
    | "health" -> Ok Health
    | "stats" -> Ok Stats
    | "metrics" -> Ok Metrics
    | "promote" -> (
        match Json.member "epoch" j with
        | None -> Ok (Promote { epoch = None })
        | Some v -> (
            match Json.to_int_opt v with
            | Some e when e > 0 -> Ok (Promote { epoch = Some e })
            | Some _ -> Error "field \"epoch\" must be positive"
            | None -> Error "field \"epoch\" must be an integer"))
    | "demote" -> (
        match Json.member "epoch" j with
        | None -> Error "field \"epoch\" is required"
        | Some v -> (
            match Json.to_int_opt v with
            | Some e when e > 0 -> Ok (Demote { epoch = e })
            | Some _ -> Error "field \"epoch\" must be positive"
            | None -> Error "field \"epoch\" must be an integer"))
    | "shutdown" -> Ok Shutdown
    | "drain" -> Ok Drain
    | "ledger" -> Ok Ledger
    | "rehome" ->
        let pairs_of key =
          match Json.member key j with
          | None -> Ok []
          | Some v -> (
              match Json.to_list_opt v with
              | None ->
                  Error (Printf.sprintf "field %S must be an array of [topic, subscriber] pairs" key)
              | Some xs ->
                  let rec conv acc = function
                    | [] -> Ok (List.rev acc)
                    | Json.List [ t; s ] :: rest -> (
                        match (Json.to_int_opt t, Json.to_int_opt s) with
                        | Some t, Some s when t >= 0 && s >= 0 -> conv ((t, s) :: acc) rest
                        | _ ->
                            Error
                              (Printf.sprintf
                                 "field %S must contain nonnegative [topic, subscriber] pairs" key))
                    | _ ->
                        Error
                          (Printf.sprintf "field %S must contain [topic, subscriber] pairs" key)
                  in
                  conv [] xs)
        in
        let* add = pairs_of "add" in
        let* remove = pairs_of "remove" in
        if add = [] && remove = [] then
          Error "rehome needs a non-empty \"add\" or \"remove\""
        else Ok (Rehome { add; remove })
    | "load" -> (
        match (Json.member "workload" j, Json.member "path" j) with
        | Some w, None -> (
            match Json.to_string_opt w with
            | Some text -> Ok (Load (`Inline text))
            | None -> Error "field \"workload\" must be a string")
        | None, Some p -> (
            match Json.to_string_opt p with
            | Some path -> Ok (Load (`Path path))
            | None -> Error "field \"path\" must be a string")
        | Some _, Some _ -> Error "pass either \"workload\" or \"path\", not both"
        | None, None -> Error "load needs a \"workload\" (inline text) or \"path\"")
    | "solve" ->
        let* digest = required_string j "digest" in
        let* params = params_of j in
        Ok (Solve { digest; params })
    | "update" ->
        let* digest = required_string j "digest" in
        let* deltas = required_string j "deltas" in
        let* params = params_of j in
        Ok (Update { digest; params; deltas })
    | "whatif" ->
        let* digest = required_string j "digest" in
        let* params = params_of j in
        let* taus =
          match Json.member "taus" j with
          | None -> Error "field \"taus\" is required"
          | Some v -> (
              match Json.to_list_opt v with
              | None -> Error "field \"taus\" must be an array of numbers"
              | Some xs ->
                  let rec conv acc = function
                    | [] -> Ok (List.rev acc)
                    | x :: rest -> (
                        match Json.to_float_opt x with
                        | Some f when f > 0. -> conv (f :: acc) rest
                        | _ -> Error "field \"taus\" must contain positive numbers")
                  in
                  conv [] xs)
        in
        if taus = [] then Error "field \"taus\" must be non-empty"
        else Ok (Whatif { digest; params; taus })
    | "chaos" ->
        let* digest = required_string j "digest" in
        let* params = params_of j in
        let* seed = field_int j "seed" ~default:1 in
        let* epochs = field_int j "epochs" ~default:8 in
        let* zones = field_int j "zones" ~default:3 in
        let* faults =
          match Json.member "faults" j with
          | None -> Ok []
          | Some v -> (
              match Json.to_list_opt v with
              | None -> Error "field \"faults\" must be an array of strings"
              | Some xs ->
                  let rec conv acc = function
                    | [] -> Ok (List.rev acc)
                    | x :: rest -> (
                        match Json.to_string_opt x with
                        | Some s -> conv (s :: acc) rest
                        | None -> Error "field \"faults\" must contain strings")
                  in
                  conv [] xs)
        in
        if epochs < 1 then Error "field \"epochs\" must be >= 1"
        else if zones < 1 then Error "field \"zones\" must be >= 1"
        else Ok (Chaos { digest; params; seed; epochs; zones; faults })
    | other -> Error (Printf.sprintf "unknown request %S" other)
  in
  Ok { id; deadline_ms; request }

(* ----- encoding ----- *)

let params_fields p =
  [ ("tau", Json.Float p.tau); ("instance", Json.String p.instance);
    ("config", Json.String p.config) ]
  @ match p.bc_events with None -> [] | Some x -> [ ("bc_events", Json.Float x) ]

let encode { id; deadline_ms; request } =
  let base =
    match request with
    | Health -> [ ("req", Json.String "health") ]
    | Stats -> [ ("req", Json.String "stats") ]
    | Metrics -> [ ("req", Json.String "metrics") ]
    | Promote { epoch = None } -> [ ("req", Json.String "promote") ]
    | Promote { epoch = Some e } ->
        [ ("req", Json.String "promote"); ("epoch", Json.Int e) ]
    | Demote { epoch } ->
        [ ("req", Json.String "demote"); ("epoch", Json.Int epoch) ]
    | Shutdown -> [ ("req", Json.String "shutdown") ]
    | Drain -> [ ("req", Json.String "drain") ]
    | Ledger -> [ ("req", Json.String "ledger") ]
    | Rehome { add; remove } ->
        let pairs ps =
          Json.List (List.map (fun (t, s) -> Json.List [ Json.Int t; Json.Int s ]) ps)
        in
        [ ("req", Json.String "rehome"); ("add", pairs add); ("remove", pairs remove) ]
    | Load (`Inline text) ->
        [ ("req", Json.String "load"); ("workload", Json.String text) ]
    | Load (`Path path) -> [ ("req", Json.String "load"); ("path", Json.String path) ]
    | Solve { digest; params } ->
        (("req", Json.String "solve") :: ("digest", Json.String digest)
        :: params_fields params)
    | Update { digest; params; deltas } ->
        ("req", Json.String "update") :: ("digest", Json.String digest)
        :: ("deltas", Json.String deltas)
        :: params_fields params
    | Whatif { digest; params; taus } ->
        ("req", Json.String "whatif") :: ("digest", Json.String digest)
        :: ("taus", Json.List (List.map (fun t -> Json.Float t) taus))
        :: params_fields params
    | Chaos { digest; params; seed; epochs; zones; faults } ->
        ("req", Json.String "chaos") :: ("digest", Json.String digest)
        :: ("seed", Json.Int seed) :: ("epochs", Json.Int epochs)
        :: ("zones", Json.Int zones)
        :: ("faults", Json.List (List.map (fun f -> Json.String f) faults))
        :: params_fields params
  in
  let base =
    match deadline_ms with
    | None -> base
    | Some d -> base @ [ ("deadline_ms", Json.Float d) ]
  in
  let base = match id with None -> base | Some id -> base @ [ ("id", id) ] in
  Json.Obj base

(* ----- replies ----- *)

type error_code =
  | Bad_request
  | Too_large
  | Unknown_digest
  | Timeout
  | Overloaded
  | Draining
  | Infeasible
  | Degraded
  | Not_leader
  | No_quorum
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Too_large -> "too_large"
  | Unknown_digest -> "unknown_digest"
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Infeasible -> "infeasible"
  | Degraded -> "degraded"
  | Not_leader -> "not_leader"
  | No_quorum -> "no_quorum"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "too_large" -> Some Too_large
  | "unknown_digest" -> Some Unknown_digest
  | "timeout" -> Some Timeout
  | "overloaded" -> Some Overloaded
  | "draining" -> Some Draining
  | "infeasible" -> Some Infeasible
  | "degraded" -> Some Degraded
  | "not_leader" -> Some Not_leader
  | "no_quorum" -> Some No_quorum
  | "internal" -> Some Internal
  | _ -> None

let with_id id fields =
  match id with None | Some None -> fields | Some (Some id) -> ("id", id) :: fields

let ok_response ?id fields = Json.Obj (("ok", Json.Bool true) :: with_id id fields)

let error_response ?id ~code ~message () =
  Json.Obj
    (("ok", Json.Bool false)
    :: with_id id
         [
           ("error", Json.String (error_code_to_string code));
           ("message", Json.String message);
         ])

let response_ok j = Json.member "ok" j |> Fun.flip Option.bind Json.to_bool_opt = Some true

let response_degraded j =
  response_ok j
  && Json.member "degraded" j |> Fun.flip Option.bind Json.to_bool_opt = Some true

(* [load] is content-addressed (re-sending the same workload maps to the
   same digest), [solve]/[whatif] are deterministic and cached, [chaos]
   is seeded, the read-only verbs are read-only, and [shutdown] merely
   re-sets the drain flag — all safe to replay on a fresh connection
   after a transport failure. [update] is the mutating verb this
   function existed for: it appends to the write-ahead log, so a blind
   replay after an ambiguous transport failure would journal the same
   update twice. The result is deterministic either way, but duplicated
   history is not "as if sent once" — {!Client.call} refuses to
   reconnect-and-replay it and surfaces the failure to the caller
   instead.

   The dataplane verbs are all replay-safe: [ledger] is a read,
   [drain] re-sets a flag like [shutdown], and [rehome] has set
   semantics — adding a pair a broker already hosts or removing one it
   does not is reported in the reply but leaves the table exactly as a
   single application would. *)
let idempotent = function
  | Health | Load _ | Solve _ | Whatif _ | Chaos _ | Stats | Metrics
  | Promote _ | Demote _ | Shutdown | Drain | Rehome _ | Ledger ->
      true
  | Update _ -> false

let response_error j =
  if response_ok j then None
  else
    let code =
      Json.member "error" j
      |> Fun.flip Option.bind Json.to_string_opt
      |> Fun.flip Option.bind error_code_of_string
    in
    let message =
      match Json.member "message" j |> Fun.flip Option.bind Json.to_string_opt with
      | Some m -> m
      | None -> "unknown error"
    in
    Some (code, message)
