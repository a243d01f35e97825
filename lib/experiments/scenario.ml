module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Latency = Octo_sim.Latency

(* PlanetLab realism: a slice of hosts is slow or overloaded, adding
   seconds of processing delay per message. Redundant-lookup schemes that
   wait for every branch (Halo) are hit hardest — the paper's mean/median
   gap. The straggler RNG is independent of the engine stream, so enabling
   it never perturbs protocol randomness. *)
let straggler_fraction = 0.05
let straggler_mean = 1.5
let straggler_seed_offset = 77

type spec = {
  n : int;
  duration : float;
  seed : int;
  cfg : Octopus.Config.t;
  fraction_malicious : float;
  metrics_bucket : float option;
  attack : Octopus.World.attack_spec option;
  churn_mean : float option;
  lookups : bool;
  checks : bool;
  stragglers : bool;
  reserve : int;
  on_init : (Octopus.World.t -> unit) list;  (* reversed *)
  on_ready : (Octopus.World.t -> unit) list;  (* reversed *)
  timed : (float * (Octopus.World.t -> unit)) list;  (* reversed *)
}

let make ?(seed = 42) ?(cfg = Octopus.Config.default) ?(fraction_malicious = 0.0)
    ?metrics_bucket ?attack ?churn_mean ?(lookups = true) ?(checks = true)
    ?(stragglers = false) ?(reserve = 0) ~n ~duration () =
  {
    n;
    duration;
    seed;
    cfg;
    fraction_malicious;
    metrics_bucket;
    attack;
    churn_mean;
    lookups;
    checks;
    stragglers;
    reserve;
    on_init = [];
    on_ready = [];
    timed = [];
  }

let on_init spec f = { spec with on_init = f :: spec.on_init }
let on_ready spec f = { spec with on_ready = f :: spec.on_ready }
let at spec ~time f = { spec with timed = (time, f) :: spec.timed }

type t = {
  engine : Engine.t;
  world : Octopus.World.t;
  spec : spec;
  fault : Octopus.Types.msg Octo_sim.Fault.t option;
  ca : Octopus.Ca.t;
}

let engine t = t.engine
let world t = t.world
let fault t = t.fault
let ca t = t.ca

let add_net_stragglers net ~n ~seed =
  let rng = Rng.create ~seed:(seed + straggler_seed_offset) in
  for addr = 0 to n - 1 do
    if Rng.coin rng straggler_fraction then
      Octo_sim.Net.set_processing_delay net addr
        (Some (fun r -> Rng.exponential r ~mean:straggler_mean))
  done

(* The construction sequence is deterministic and must not be reordered:
   the engine RNG is split for latency, then consumed again inside
   [World.create], so any change here renumbers every random draw of the
   run and breaks trace reproducibility against pre-Scenario results. *)
let build spec =
  let engine = Engine.create ~seed:spec.seed () in
  let lat_rng = Rng.split (Engine.rng engine) in
  (* [reserve] extra latency slots for CA-admitted identities; with the
     default 0 the space is exactly the historical [n + 1]. *)
  let latency = Latency.create lat_rng ~n:(spec.n + spec.reserve + 1) in
  let w =
    Octopus.World.create ~cfg:spec.cfg ~fraction_malicious:spec.fraction_malicious
      ?metrics_bucket:spec.metrics_bucket ~reserve:spec.reserve engine latency ~n:spec.n
  in
  Octopus.Serve.install w;
  (* A no-op (no hook, no RNG split) unless the config carries a fault
     plan, so default scenarios keep their historical traces. *)
  let fault = Octopus.Chaos.install w in
  if spec.stragglers then add_net_stragglers w.Octopus.World.net ~n:spec.n ~seed:spec.seed;
  let ca = Octopus.Ca.create w in
  Option.iter (Octopus.World.set_attack w) spec.attack;
  List.iter (fun f -> f w) (List.rev spec.on_init);
  Octopus.Maintain.start
    ~opts:
      {
        Octopus.Maintain.enable_lookups = spec.lookups;
        churn_mean = spec.churn_mean;
        enable_checks = spec.checks;
      }
    w;
  List.iter (fun f -> f w) (List.rev spec.on_ready);
  List.iter
    (fun (time, f) -> Octopus.World.after w ~delay:time (fun () -> f w))
    (List.rev spec.timed);
  { engine; world = w; spec; fault; ca }

let run spec =
  let t = build spec in
  Engine.run t.engine ~until:spec.duration;
  t
