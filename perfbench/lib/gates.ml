module Verifier = Mcss_core.Verifier
module Simulator = Mcss_sim.Simulator
module Delivery = Mcss_report.Delivery
module Json = Mcss_serve.Json

type outcome = (unit, string) result

let plan_clean (report : Verifier.report) =
  match report.Verifier.violations with
  | [] -> Ok ()
  | v :: _ ->
      Error
        (Format.asprintf "verifier: %d violations, first %a"
           (List.length report.Verifier.violations)
           Verifier.pp_violation v)

let same_digest ~what ~expected got =
  if String.equal expected got then Ok ()
  else Error (Printf.sprintf "%s digest %s, expected %s" what got expected)

let sim_check (check : Simulator.check) =
  if Simulator.all_ok check then Ok ()
  else
    Error
      (Printf.sprintf "simulator check: %d unsatisfied subscribers, %d VM traffic mismatches"
         (List.length check.Simulator.unsatisfied)
         (List.length check.Simulator.traffic_mismatch))

let totals_agree ~sim ~fleet =
  if sim = fleet then Ok ()
  else
    Error
      (Format.asprintf "delivery totals differ: simulator %a, fleet %a" Delivery.pp sim
         Delivery.pp fleet)

let str key j = Option.bind (Json.member key j) Json.to_string_opt
let ok j = Json.member "ok" j = Some (Json.Bool true)

let update_reply ~sent_head reply =
  if not (ok reply) then Error ("update refused: " ^ Json.to_string reply)
  else
    match (str "previous_digest" reply, str "digest" reply) with
    | Some prev, Some head when String.equal prev sent_head -> Ok head
    | Some prev, Some _ ->
        Error (Printf.sprintf "update applied to %s, sent against %s" prev sent_head)
    | _ -> Error ("update reply without digests: " ^ Json.to_string reply)

let read_reply ~head reply =
  if not (ok reply) then Error ("read refused: " ^ Json.to_string reply)
  else if str "digest" reply <> Some head then
    Error (Printf.sprintf "read of %s answered for another digest" head)
  else if Json.member "cached" reply <> Some (Json.Bool true) then
    Error (Printf.sprintf "read of %s was not a cache hit" head)
  else Ok ()

module Tally = struct
  type t = { mutable attempted : int; mutable failed : int; mutable messages : string list }

  let create () = { attempted = 0; failed = 0; messages = [] }

  let record t outcome =
    t.attempted <- t.attempted + 1;
    match outcome with
    | Ok () -> ()
    | Error m ->
        t.failed <- t.failed + 1;
        if List.length t.messages < 5 then t.messages <- t.messages @ [ m ]

  let attempted t = t.attempted
  let failed t = t.failed
  let messages t = t.messages

  let add a b =
    {
      attempted = a.attempted + b.attempted;
      failed = a.failed + b.failed;
      messages = a.messages @ b.messages;
    }
end
