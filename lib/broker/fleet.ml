module Workload = Mcss_workload.Workload
module Stats = Mcss_workload.Stats
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Rng = Mcss_prng.Rng
module Schedule = Mcss_sim.Schedule
module Registry = Mcss_obs.Registry
module Span = Mcss_obs.Span
module Counter = Mcss_obs.Metric.Counter
module Gauge = Mcss_obs.Metric.Gauge

type t = {
  problem : Problem.t;
  brokers : Broker.t array;
  routing : int list array;  (* topic -> broker ids, ascending *)
  message_bytes : int;
}

type arrivals = Schedule.arrivals =
  | Deterministic
  | Poisson of int
  | Diurnal of { seed : int; amplitude : float }

type config = {
  duration : float;
  arrivals : arrivals;
  latency_reservoir : int;
  latency_seed : int;
}

let default_config =
  { duration = 1.0; arrivals = Deterministic; latency_reservoir = 10_000; latency_seed = 1 }

type latency_summary = {
  samples : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type report = {
  published : int;
  routed : int;
  deliveries : int;
  received : int array;
  latency : latency_summary option;
  max_utilization : float;
  broker_stats : (int * Broker.stats) list;
  totals : Mcss_report.Delivery.totals;
}

let build (p : Problem.t) a ~message_bytes =
  if message_bytes <= 0 then invalid_arg "Fleet.build: message_bytes must be positive";
  let w = p.Problem.workload in
  let bytes_per_horizon = p.Problem.capacity *. float_of_int message_bytes in
  let brokers =
    Array.map
      (fun vm ->
        let broker = Broker.create ~id:(Allocation.vm_id vm) ~bytes_per_horizon in
        Allocation.iter_vm_pairs vm (fun topic subscriber ->
            Broker.subscribe broker ~topic ~subscriber);
        broker)
      (Allocation.vms a)
  in
  let routing = Array.make (Workload.num_topics w) [] in
  Array.iter
    (fun broker ->
      for topic = 0 to Workload.num_topics w - 1 do
        if Broker.hosts broker topic then
          routing.(topic) <- Broker.id broker :: routing.(topic)
      done)
    brokers;
  Array.iteri (fun topic ids -> routing.(topic) <- List.sort compare ids) routing;
  { problem = p; brokers; routing; message_bytes }

let num_brokers fleet = Array.length fleet.brokers

let brokers_for_topic fleet topic = fleet.routing.(topic)

(* Bounded reservoir over delivery latencies so quantiles stay exact for
   small runs and statistically sound for big ones. The eviction draws
   come from the caller's seeded [Mcss_prng] source, so histograms are
   bit-reproducible under a fixed [--trace-seed]. *)
module Reservoir = struct
  type t = {
    mutable seen : int;
    store : float array;
    rng : Rng.t;
    mutable sum : float;
    mutable max_value : float;
  }

  let create ~rng size =
    { seen = 0; store = Array.make (max 1 size) 0.; rng; sum = 0.; max_value = 0. }

  let add r x =
    r.sum <- r.sum +. x;
    if x > r.max_value then r.max_value <- x;
    let cap = Array.length r.store in
    if r.seen < cap then r.store.(r.seen) <- x
    else begin
      let j = Rng.int r.rng (r.seen + 1) in
      if j < cap then r.store.(j) <- x
    end;
    r.seen <- r.seen + 1

  let kept r = Array.sub r.store 0 (min r.seen (Array.length r.store))

  let summary r =
    if r.seen = 0 then None
    else begin
      let kept = kept r in
      Some
        {
          samples = r.seen;
          mean = r.sum /. float_of_int r.seen;
          p50 = Stats.quantile kept 0.5;
          p95 = Stats.quantile kept 0.95;
          p99 = Stats.quantile kept 0.99;
          max = r.max_value;
        }
    end
end

let run ?(obs = Registry.noop) fleet config =
  if not (config.duration > 0.) then invalid_arg "Fleet.run: duration must be positive";
  Span.with_ obs ~name:"fleet" @@ fun () ->
  let w = fleet.problem.Problem.workload in
  let schedule =
    Schedule.create ~context:"Fleet.run" w config.arrivals ~duration:config.duration
  in
  let received = Array.make (Workload.num_subscribers w) 0 in
  let reservoir =
    Reservoir.create ~rng:(Rng.create config.latency_seed) config.latency_reservoir
  in
  let published = ref 0 in
  let routed = ref 0 in
  let deliveries = ref 0 in
  Span.with_ obs ~name:"deliver" (fun () ->
      Schedule.iter schedule (fun time topic ->
          let message =
            Message.make ~id:!published ~topic ~publish_time:time
              ~size_bytes:fleet.message_bytes
          in
          incr published;
          List.iter
            (fun broker_id ->
              incr routed;
              let delivered = Broker.ingest fleet.brokers.(broker_id) message in
              List.iter
                (fun d ->
                  incr deliveries;
                  received.(d.Broker.subscriber) <- received.(d.Broker.subscriber) + 1;
                  Reservoir.add reservoir (d.Broker.depart_time -. time))
                delivered)
            fleet.routing.(topic)));
  let max_utilization =
    Array.fold_left
      (fun acc broker -> Float.max acc (Broker.utilization broker ~horizon:config.duration))
      0. fleet.brokers
  in
  let report =
    {
      published = !published;
      routed = !routed;
      deliveries = !deliveries;
      received;
      latency = Reservoir.summary reservoir;
      max_utilization;
      broker_stats = Array.to_list (Array.map (fun b -> (Broker.id b, Broker.stats b)) fleet.brokers);
      totals =
        {
          Mcss_report.Delivery.published = !published;
          handoffs = !routed;
          delivered = !deliveries;
          dropped = 0;
        };
    }
  in
  if Registry.enabled obs then begin
    let c name help v = Counter.add (Registry.counter obs ~help name) v in
    c "broker.published" "Messages generated by the publishers" report.published;
    c "broker.routed" "Message-to-broker handoffs" report.routed;
    c "broker.deliveries" "Message copies handed to subscribers" report.deliveries;
    Gauge.set
      (Registry.gauge obs ~help:"Busiest broker's bandwidth utilisation"
         "broker.max_utilization")
      report.max_utilization;
    let util =
      Registry.histogram obs
        ~buckets:(Mcss_obs.Metric.Histogram.linear ~lo:0.1 ~hi:2.0 ~buckets:20)
        ~help:"Per-broker bandwidth utilisation over the horizon"
        "broker.utilization"
    in
    Array.iter
      (fun b ->
        Mcss_obs.Metric.Histogram.observe util
          (Broker.utilization b ~horizon:config.duration))
      fleet.brokers;
    (match report.latency with
    | None -> ()
    | Some _ ->
        let h =
          Registry.histogram obs
            ~buckets:(Mcss_obs.Metric.Histogram.exponential ~lo:1e-6 ~factor:4. ~buckets:16)
            ~help:"Delivery latency reservoir summary points (horizon units)"
            "broker.delivery_latency"
        in
        (* The reservoir keeps the exact samples; replay the kept window
           so the histogram's quantiles agree with the report's. *)
        Array.iter
          (fun x -> Mcss_obs.Metric.Histogram.observe h x)
          (Reservoir.kept reservoir))
  end;
  report
