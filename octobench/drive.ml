(* The four workloads and the one lookup driver they share.

   A workload is a fixed deployment (a Scenario spec built from its own
   seed) plus an open-loop stream of lookups the benchmark issues: the
   arrival times, keys and initiators come from the run's seed. So every
   workload reports the same metrics (set-up and run wall time, memory,
   and the success, latency and bandwidth of its lookups), and seeds
   vary the requests, not the network they land on.

   The stream mirrors [Workload.run]: the same RNG universe and splits,
   warm-up, tail, key catalog, initiator picks and lazy arrival chain.
   [test_octobench] checks that draw for draw. *)

module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Dist = Octo_sim.Metrics.Dist
module Peer = Octo_chord.Peer
module World = Octopus.World
module Config = Octopus.Config
module Olookup = Octopus.Olookup
module Scenario = Octo_experiments.Scenario
module Workload = Octo_experiments.Workload

type t = {
  name : string;
  why : string;
  n : int;
  process : Workload.Arrivals.process;
  lookups : int;  (** lookups the benchmark issues per run *)
  lookup : World.t -> World.node -> key:int -> (Olookup.result -> unit) -> unit;
  min_duration : float;  (** simulated seconds, however early the arrivals end *)
  base : n:int -> seed:int -> duration:float -> Scenario.spec;
  grace : float option;  (** invariant-checker grace; [None] for its default *)
  churn : bool;  (** the ring never settles, so skip the convergence check *)
  success_floor : float;  (** correctness gate on [lookup_success] *)
  exact_owner : bool;
      (** neither attack nor churn: every lookup that names an owner must
          name the true one *)
  attack : bool;  (** gate on attacker ejection and false convictions *)
}

(* [Workload.run]'s constants; the equivalence test pins them. *)
let master_offset = 0x0c70
let warmup = 10.0
let tail = 30.0
let catalog_size = 512

(* The deployment every run of a workload builds; [--seed] seeds only
   the lookup stream. *)
let deploy_seed = 42

let load_spec ~cfg ~n ~seed ~duration =
  Scenario.make ~seed ~cfg ~n ~duration ~lookups:false ~checks:false ()

(* [Security.run]'s Fig. 3(a) spec: the full protocol against 20% bias
   attackers at rate 100%. *)
let bias_spec ~cfg ~n ~seed ~duration =
  Scenario.make ~seed ~cfg ~fraction_malicious:0.2 ~metrics_bucket:10.0
    ~attack:{ World.kind = World.Bias; rate = 1.0; consistency = 0.5 }
    ~lookups:true ~n ~duration ()

(* Ring repair and path fallback, as the chaos and attack regimes run
   them: with the historical single-path default, a third of the
   lookups issued after the ejections still die on revoked relays, and
   how many varies too much from seed to seed to gate on. *)
let robust = { Config.default with Config.anon_path_retries = 2; ring_repair = true }

let scale_stabilize = 20.0

let anon_steady =
  {
    name = "anon-steady";
    why =
      "anonymous lookups at a steady Poisson rate: onion paths, signed-table checks and relay \
       walks do the work, and the verify cache stays warm";
    n = 200;
    process = Workload.Arrivals.Poisson { rate = 100.0 };
    lookups = 1000;
    lookup = Olookup.anonymous;
    min_duration = 0.0;
    base = load_spec ~cfg:Config.default;
    grace = None;
    churn = false;
    success_floor = 0.95;
    exact_owner = true;
    attack = false;
  }

let anon_burst =
  {
    name = "anon-burst";
    why =
      "the same lookups in bursts behind a per-destination RPC cap of 32, so the Rpc queue \
       engages and sets the latency tail";
    n = 120;
    process = Workload.Arrivals.Poisson { rate = 400.0 };
    lookups = 1500;
    lookup = Olookup.anonymous;
    min_duration = 0.0;
    base = load_spec ~cfg:{ Config.default with Config.rpc_in_flight_cap = 32 };
    grace = None;
    churn = false;
    success_floor = 0.90;
    exact_owner = true;
    attack = false;
  }

let bias_attack =
  {
    name = "bias-attack";
    why =
      "Fig. 3(a) bias attack with surveillance and the CA: revocations flush the verify cache \
       and purge routing tables while lookups run";
    n = 120;
    process = Workload.Arrivals.Poisson { rate = 5.0 };
    lookups = 800;
    lookup = Olookup.anonymous;
    min_duration = 200.0;
    base = bias_spec ~cfg:robust;
    (* Lookups keep reaching revoked colluders for up to two minutes
       after their revocation (Invariant 4 failed on 24 of 30 seeds at
       the default grace), so this checker excuses revoked identities
       for the whole run and checks everything else. *)
    grace = Some 200.0;
    churn = false;
    success_floor = 0.75;
    exact_owner = false;
    attack = true;
  }

let scale_churn =
  {
    name = "scale-churn";
    why =
      "a larger population under churn with stabilization and direct lookups only: engine, Net \
       and per-node memory, no onion crypto";
    n = 3000;
    process = Workload.Arrivals.Poisson { rate = 20.0 };
    lookups = 2000;
    lookup = Olookup.direct;
    min_duration = 150.0;
    base =
      (fun ~n ~seed ~duration ->
        Scenario.make ~seed
          ~cfg:(Octo_experiments.Scale.scale_cfg ~stabilize_every:scale_stabilize)
          ~churn_mean:3600.0 ~lookups:false ~checks:false ~n ~duration ());
    (* [Scale.run]'s grace: the ring re-knits at the slow stabilization
       period, not the default 2 s one. *)
    grace =
      Some
        ((4.0 *. scale_stabilize) +. Config.default.Config.table_freshness
        +. (2.0 *. Config.default.Config.query_deadline)
        +. 2.0);
    churn = true;
    success_floor = 0.90;
    exact_owner = false;
    attack = false;
  }

let all = [ anon_steady; anon_burst; bias_attack; scale_churn ]
let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* One run *)

type lookups = {
  issued : int;
  completed : int;
  converged : int;  (** named the true owner ([World.find_owner] at completion) *)
  wrong : int;  (** named an owner that is not the true one *)
  latency : Dist.t;  (** elapsed simulated seconds of every completed lookup *)
}

(* Precompute arrivals and keys from the stream's own RNG universe, then
   return the scenario spec with the arrival chain armed at [on_ready],
   the simulated duration, and a reader for the lookup outcomes.
   [on_init] runs before maintenance starts, where a checker attaches;
   [around] wraps each synchronous lookup call. *)
let prepare ?(on_init = fun (_ : World.t) -> ()) ?(around = fun f -> f ()) wl ~deploy_seed ~seed =
  let master = Rng.create ~seed:(seed + master_offset) in
  let arr_rng = Rng.split master in
  let key_rng = Rng.split master in
  let pick_rng = Rng.split master in
  let arr = Workload.Arrivals.create wl.process arr_rng in
  let times = Array.make wl.lookups 0.0 in
  let prev = ref 0.0 in
  for i = 0 to wl.lookups - 1 do
    let t = Workload.Arrivals.next arr ~now:!prev in
    times.(i) <- warmup +. t;
    prev := t
  done;
  let duration =
    if wl.lookups = 0 then wl.min_duration
    else Float.max wl.min_duration (times.(wl.lookups - 1) +. tail)
  in
  let zipf = Workload.Zipf.create ~n:catalog_size () in
  let catalog =
    Array.init catalog_size (fun _ -> Rng.int key_rng (1 lsl Config.default.Config.bits))
  in
  let keys = Array.init wl.lookups (fun _ -> catalog.(Workload.Zipf.sample zipf key_rng)) in
  let issued = ref 0 and completed = ref 0 and converged = ref 0 and wrong = ref 0 in
  let latency = Dist.create () in
  let pick_initiator w =
    let rec draw tries =
      if tries = 0 then None
      else begin
        let node = World.node w (Rng.int pick_rng wl.n) in
        if node.World.alive && (not node.World.malicious) && not node.World.revoked then Some node
        else draw (tries - 1)
      end
    in
    draw 8
  in
  let issue w i =
    match pick_initiator w with
    | None -> ()
    | Some node ->
      incr issued;
      let key = keys.(i) in
      around (fun () ->
          wl.lookup w node ~key (fun r ->
              incr completed;
              Dist.add latency r.Olookup.elapsed;
              match r.Olookup.owner with
              | None -> ()
              | Some o -> (
                match World.find_owner w ~key with
                | Some truth when Peer.equal o truth -> incr converged
                | Some _ | None -> incr wrong)))
  in
  let next = ref 0 in
  let rec schedule_next w =
    if !next < wl.lookups then begin
      let i = !next in
      incr next;
      (* One pending arrival at any instant, whatever the lookup count. *)
      ignore
        (Engine.schedule_at (World.engine w) ~time:times.(i) (fun () ->
             issue w i;
             schedule_next w))
    end
  in
  let spec = Scenario.on_init (wl.base ~n:wl.n ~seed:deploy_seed ~duration) on_init in
  let spec = Scenario.on_ready spec schedule_next in
  let out () =
    { issued = !issued; completed = !completed; converged = !converged; wrong = !wrong; latency }
  in
  (spec, duration, out)
