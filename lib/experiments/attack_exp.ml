module Trace = Octo_sim.Trace
module Rng = Octo_sim.Rng
module Engine = Octo_sim.Engine
module Id = Octo_chord.Id
module Peer = Octo_chord.Peer
module Ring_model = Octo_anonymity.Ring_model
module Range_attack = Octo_anonymity.Range_attack

type regime = Sybil_flood | Eclipse | Churn_range

let all_regimes = [ Sybil_flood; Eclipse; Churn_range ]

let regime_name = function
  | Sybil_flood -> "sybil"
  | Eclipse -> "eclipse"
  | Churn_range -> "churn-range"

(* Lookup-success floors per regime, documented in EXPERIMENTS.md. As for
   the chaos regimes they sit below the rates observed at the default
   n=60, duration=240, seeds 7 and 11, so seed jitter cannot flake CI,
   but high enough that a real degradation — Sybils wedging maintenance,
   the ring failing to recover from an eclipse — trips them. *)
let threshold = function
  | Sybil_flood -> 0.80
  | Eclipse -> 0.50
  | Churn_range -> 0.60

(* Sybil campaign shape (fractions of the run, like the chaos plans):
   admission requests fire in [0.25d, 0.75d), [sybil_sources] colluding
   sources each asking every [sybil_tick] seconds. The defense settings
   live in the regime's config below. *)
let sybil_sources = 2
let sybil_tick = 2.0
let sybil_rate = 0.05
let sybil_burst = 4

type cost_point = {
  c_label : string;
  c_assigned : bool;  (* CA-assigned random ids (placement defense)? *)
  c_rate : float;  (* token-bucket refill, grants/s; 0.0 = unlimited *)
  c_requests : int;  (* admission requests spent (= attack cost) *)
  c_admitted : int;
  c_owned : int;  (* victim successor-set slots held by Sybils *)
  c_success : bool;  (* all [list_size] slots owned *)
}

type result = {
  regime : regime;
  outcome : Regime.outcome;
  (* Sybil flooding *)
  sybil_requests : int;
  sybils_admitted : int;
  sybil_refused : int;
  sybil_cap : int;  (* documented admission ceiling for the campaign *)
  cost_curve : cost_point list;
  (* eclipse *)
  revocations : int;
  cache_flushes : int;
  eclipsed_peak : int;
  (* churn-timed range estimation *)
  fresh_total : int;
  fresh_hits : int;
  stale_total : int;
  stale_hits : int;
}

(* ------------------------------------------------------------------ *)
(* Shared scaffolding *)

(* Honest boot-population ids still standing: the adversary's (and the
   cost model's) view of the ring. *)
let honest_ids w ~n =
  let out = ref [] in
  for addr = n - 1 downto 0 do
    let node = Octopus.World.node w addr in
    if node.Octopus.World.alive && (not node.Octopus.World.revoked)
       && not node.Octopus.World.malicious
    then out := node.Octopus.World.peer.Peer.id :: !out
  done;
  !out

let colluder_addrs w ~n ~count =
  let out = ref [] in
  for addr = n - 1 downto 0 do
    if (Octopus.World.node w addr).Octopus.World.malicious then out := addr :: !out
  done;
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  take count !out

let base_result ~regime outcome =
  {
    regime;
    outcome;
    sybil_requests = 0;
    sybils_admitted = 0;
    sybil_refused = 0;
    sybil_cap = 0;
    cost_curve = [];
    revocations = 0;
    cache_flushes = 0;
    eclipsed_peak = 0;
    fresh_total = 0;
    fresh_hits = 0;
    stale_total = 0;
    stale_hits = 0;
  }

(* ------------------------------------------------------------------ *)
(* Sybil cost model (EXPERIMENTS.md cost curve) *)

let list_size = Octopus.Config.list_size

(* How many of the first [list_size] clockwise members of [key] are
   Sybil identities. *)
let owned_slots ~space ~honest ~sybils ~key =
  let tag flag ids = List.rev_map (fun id -> (id, flag)) ids in
  let members =
    List.sort
      (fun (a, _) (b, _) ->
        Int.compare (Id.distance_cw space key a) (Id.distance_cw space key b))
      (List.rev_append (tag false honest) (tag true sybils))
  in
  let rec count k = function
    | (_, s) :: rest when k > 0 -> (if s then 1 else 0) + count (k - 1) rest
    | _ -> 0
  in
  count list_size members

(* One attacker campaign against a frozen ring snapshot: requests at
   [req_rate] through an (optional) token bucket, stepped by the CA's own
   [Ca.take_token] so the model limits exactly as the live CA does,
   identifiers either crafted to surround [key] or CA-assigned uniformly,
   until the victim's successor set is owned, the window closes, or the
   budget runs out.
   Pure local arithmetic over the snapshot — no event simulation — so the
   curve is deterministic and costs microseconds. *)
let sim_campaign ~space ~honest ~key ~seed ~assigned ~rate ~burst ~window
    ~req_rate ~budget ~label =
  let rng = Rng.create ~seed in
  let used = Hashtbl.create 256 in
  List.iter (fun id -> Hashtbl.replace used id ()) honest;
  let sybils = ref [] in
  let craft = ref 0 in
  let requests = ref 0 in
  let admitted = ref 0 in
  let bucket = Octopus.Ca.bucket ~burst ~now:0.0 in
  let time = ref 0.0 in
  let dt = 1.0 /. req_rate in
  let owned () = owned_slots ~space ~honest ~sybils:!sybils ~key in
  let stop = ref false in
  while not !stop do
    if !requests >= budget || (rate > 0.0 && !time > window) then stop := true
    else begin
      incr requests;
      let pass = rate <= 0.0 || Octopus.Ca.take_token bucket ~rate ~burst ~now:!time in
      if pass then begin
        let id =
          if assigned then begin
            let rec fresh () =
              let id = Id.random space rng in
              if Hashtbl.mem used id then fresh () else id
            in
            fresh ()
          end
          else begin
            let rec next () =
              let id = Id.add space key !craft in
              incr craft;
              if Hashtbl.mem used id then next () else id
            in
            next ()
          end
        in
        Hashtbl.replace used id ();
        sybils := id :: !sybils;
        incr admitted;
        if owned () >= list_size then stop := true
      end;
      time := !time +. dt
    end
  done;
  let owned = owned () in
  {
    c_label = label;
    c_assigned = assigned;
    c_rate = rate;
    c_requests = !requests;
    c_admitted = !admitted;
    c_owned = owned;
    c_success = owned >= list_size;
  }

let cost_curve ~space ~honest ~key ~seed ~window =
  let sim idx ~assigned ~rate ~label =
    sim_campaign ~space ~honest ~key ~seed:(seed + 0x90 + idx) ~assigned
      ~rate ~burst:sybil_burst ~window ~req_rate:0.5 ~budget:100_000 ~label
  in
  [ sim 0 ~assigned:false ~rate:0.0 ~label:"crafted/open";
    sim 1 ~assigned:false ~rate:sybil_rate ~label:"crafted/limited";
    sim 2 ~assigned:true ~rate:0.0 ~label:"assigned/open";
    sim 3 ~assigned:true ~rate:sybil_rate ~label:"assigned/limited";
  ]

(* Requests an attacker must spend to own the victim's successor set once
   the CA assigns identifiers, relative to crafting them freely. *)
let cost_factor curve =
  let requests label =
    List.fold_left
      (fun acc p -> if String.equal p.c_label label then Some p.c_requests else acc)
      None curve
  in
  match (requests "crafted/open", requests "assigned/open") with
  | Some crafted, Some assigned when crafted > 0 ->
    float_of_int assigned /. float_of_int crafted
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Regime 1: Sybil identifier flooding against the admission defense *)

let run_sybil h ~n ~duration ~seed =
  let from_ = 0.25 *. duration in
  let until = 0.75 *. duration in
  let window = until -. from_ in
  (* Per-source admission ceiling over the window; the campaign cannot
     beat it, and [passed] (plus the CI gate) fails if it somehow does. *)
  let cap = sybil_sources * (sybil_burst + int_of_float (sybil_rate *. window)) in
  let reserve = cap + 2 in
  let cfg =
    {
      Octopus.Config.default with
      Octopus.Config.ca_admission = true;
      ca_admission_rate = sybil_rate;
      ca_admission_burst = sybil_burst;
      ca_assign_ids = true;
      ring_repair = true;
      lookup_every = 20.0;
    }
  in
  let ca_ref = ref None in
  let snapshot = ref [] in
  let target_key = ref 0 in
  let next_slot = ref n in
  let spec =
    Regime.on_init h (Scenario.make ~seed ~cfg ~fraction_malicious:0.1 ~reserve ~n ~duration ())
  in
  let spec =
    Scenario.at spec ~time:from_ (fun w ->
        (* Calibrate: freeze the adversary's view of the ring and pick the
           victim key from an RNG independent of the engine stream. *)
        snapshot := honest_ids w ~n;
        let arng = Rng.create ~seed:(seed + 0xA77) in
        target_key := Id.random (Octopus.World.space w) arng;
        let sources = colluder_addrs w ~n ~count:sybil_sources in
        let activate id =
          if !next_slot < n + reserve then begin
            let addr = !next_slot in
            incr next_slot;
            Octopus.World.revive_as w addr ~id;
            let node = Octopus.World.node w addr in
            node.Octopus.World.malicious <- true;
            if Trace.on () then
              Trace.emit ~time:(Octopus.World.now w) ~node:addr (Trace.Churn_join { addr });
            (* The one-shot join can fail (bootstrap draw collides, the
               locating lookup misses); a Sybil stuck half-joined would sit
               in the global truth without ever integrating, so retry until
               the ring has adopted it. *)
            Octopus.Maintain.retry_join w node ~tries:11 ~every:2.0 ignore
          end
        in
        let craft = ref 0 in
        let ticks = int_of_float (window /. sybil_tick) in
        let rec tick i () =
          if i < ticks then begin
            (match !ca_ref with
            | None -> ()
            | Some ca ->
              List.iter
                (fun source ->
                  let requested_id = Id.add (Octopus.World.space w) !target_key !craft in
                  incr craft;
                  match Octopus.Ca.request_admission ca ~source ~requested_id with
                  | Octopus.Ca.Admitted { id } -> activate id
                  | Octopus.Ca.Refused_rate_limited | Octopus.Ca.Refused_revoked
                  | Octopus.Ca.Refused_id_taken -> ())
                sources);
            Octopus.World.after w ~delay:sybil_tick (tick (i + 1))
          end
        in
        tick 0 ())
  in
  let sc = Scenario.build spec in
  ca_ref := Some (Scenario.ca sc);
  Engine.run (Scenario.engine sc) ~until:duration;
  let ca = Scenario.ca sc in
  let w = Scenario.world sc in
  let curve =
    cost_curve ~space:(Octopus.World.space w) ~honest:!snapshot ~key:!target_key ~seed ~window
  in
  fun outcome ->
  {
    (base_result ~regime:Sybil_flood outcome)
    with
    sybil_requests = Octopus.Ca.admitted ca + Octopus.Ca.refused ca;
    sybils_admitted = Octopus.Ca.admitted ca;
    sybil_refused = Octopus.Ca.refused ca;
    sybil_cap = cap;
    cost_curve = curve;
  }

(* ------------------------------------------------------------------ *)
(* Regime 2: eclipse timed with a partition heal *)

let run_eclipse h ~n ~duration ~seed ~cache =
  let d = duration in
  (* The partition window is the chaos partition plan; the colluders turn
     their Bias behavior on just before it opens and keep serving poison
     through the heal, so re-converging victims learn colluder entries
     while their honest pointers are stale. The attack stops at 0.6d,
     leaving the tail to demonstrate recovery. *)
  let cfg =
    {
      Octopus.Config.default with
      Octopus.Config.fault_plan = Some (Chaos_exp.plan_for Chaos_exp.Partition_heal ~n ~duration);
      anon_path_retries = 2;
      ring_repair = true;
      lookup_every = 20.0;
      result_cache = cache;
    }
  in
  let revocations = ref 0 in
  let eclipsed_peak = ref 0 in
  let spec = Regime.on_init h (Scenario.make ~seed ~cfg ~fraction_malicious:0.2 ~n ~duration ()) in
  let spec =
    Scenario.on_init spec (fun _ ->
        Trace.subscribe (Regime.trace h) (fun ev ->
            match ev.Trace.data with
            | Trace.Revoked _ -> incr revocations
            | _ -> ()))
  in
  let spec =
    Scenario.at spec ~time:(0.2 *. d) (fun w ->
        Octopus.World.set_attack w
          { Octopus.World.kind = Octopus.World.Bias; rate = 1.0; consistency = 0.5 })
  in
  let spec =
    Scenario.at spec ~time:(0.6 *. d) (fun w ->
        Octopus.World.set_attack w Octopus.World.no_attack)
  in
  (* Sample the eclipse watch while the poisoning is strongest: during
     the partition, right after the heal, and at attack stop. *)
  let sample _w =
    eclipsed_peak :=
      Int.max !eclipsed_peak
        (Octopus.Invariant.check_eclipse ~allowed:max_int (Regime.checker h))
  in
  let spec = Scenario.at spec ~time:(0.45 *. d) sample in
  let spec = Scenario.at spec ~time:(0.56 *. d) sample in
  let spec = Scenario.at spec ~time:(0.62 *. d) sample in
  let w = Scenario.world (Scenario.run spec) in
  fun outcome ->
  {
    (base_result ~regime:Eclipse outcome)
    with
    revocations = !revocations;
    cache_flushes = Octopus.Rcache.flushes (Octopus.World.result_cache w);
    eclipsed_peak = !eclipsed_peak;
  }

(* ------------------------------------------------------------------ *)
(* Regime 3: range-estimation attack on a churning ring *)

let run_churn_range h ~n ~duration ~seed =
  let d = duration in
  let cfg =
    { Octopus.Config.default with Octopus.Config.ring_repair = true; lookup_every = 20.0 }
  in
  let model = ref None in
  let fresh_total = ref 0 in
  let fresh_hits = ref 0 in
  let stale_total = ref 0 in
  let stale_hits = ref 0 in
  (* The adversary calibrates a Ring_model snapshot at 0.3d, then applies
     the Appendix III estimator to lookups observed right away (fresh)
     and again late in the run (stale), after churn has rotated part of
     the membership out from under the snapshot. *)
  let classify w ~total ~hits (queried : Peer.t list) (owner : Peer.t) =
    match !model with
    | None -> ()
    | Some m ->
      let ranks =
        List.filter_map
          (fun (p : Peer.t) ->
            let r = Ring_model.owner_rank m ~key:p.Peer.id in
            if Ring_model.id_of m r = p.Peer.id then Some r else None)
          queried
      in
      if (match ranks with [] -> false | _ -> true) && Range_attack.passes_filter m ranks
      then begin
        match Range_attack.estimate m ranks with
        | None -> ()
        | Some (lo, size) ->
          incr total;
          let nm = Ring_model.n m in
          let lo_id = Ring_model.id_of m lo in
          let hi_id = Ring_model.id_of m ((lo + size) mod nm) in
          if Id.between (Octopus.World.space w) owner.Peer.id ~lo:lo_id ~hi:hi_id then
            incr hits
      end
  in
  let probe w ~count ~krng ~total ~hits =
    for _ = 1 to count do
      let rec pick tries =
        let addr = Rng.int krng n in
        let node = Octopus.World.node w addr in
        if
          (node.Octopus.World.alive && not node.Octopus.World.revoked)
          || tries > 4 * n
        then node
        else pick (tries + 1)
      in
      let node = pick 0 in
      let key = Id.random (Octopus.World.space w) krng in
      if node.Octopus.World.alive then
        Octopus.Olookup.direct w node ~key (fun r ->
            match r.Octopus.Olookup.owner with
            | Some owner -> classify w ~total ~hits r.Octopus.Olookup.queried owner
            | None -> ())
    done
  in
  let spec = Regime.on_init h (Scenario.make ~seed ~cfg ~n ~duration ()) in
  (* Run the churn process ourselves (rather than via [Scenario.make
     ~churn_mean]) so we keep the handle: churn stops at 0.7d, leaving the
     final 0.3d for maintenance to settle so [check_convergence] asserts a
     ring that actually had time to re-converge — the same early-stop
     pattern [Scale] uses. A node whose rejoin raced a departed bootstrap
     can stay islanded for the whole churn window, so after the stop we
     sweep the rejoiners once and re-run the join protocol for any that
     are still alive. *)
  let rejoined = ref [] in
  let spec =
    Scenario.on_ready spec (fun w ->
        let engine = Octopus.World.engine w in
        let churn =
          Octopus.Maintain.churn w ~rng:(Rng.split w.Octopus.World.rng) ~mean_lifetime:900.0
            ~rejoin:(fun node ->
              rejoined := node.Octopus.World.addr :: !rejoined;
              Octopus.Maintain.join w node ignore)
        in
        ignore
          (Octo_sim.Engine.schedule engine ~delay:(0.7 *. d) (fun () ->
               Octo_sim.Churn.stop churn));
        ignore
          (Octo_sim.Engine.schedule engine
             ~delay:((0.7 *. d) +. 5.0)
             (fun () ->
               List.iter
                 (fun addr ->
                   let node = Octopus.World.node w addr in
                   if node.Octopus.World.alive && not node.Octopus.World.revoked
                   then Octopus.Maintain.join w node (fun _ -> ()))
                 !rejoined)))
  in
  let spec =
    Scenario.at spec ~time:(0.3 *. d) (fun w ->
        let ids = Array.of_list (honest_ids w ~n) in
        model :=
          Some
            (Ring_model.of_ids ~bits:cfg.Octopus.Config.bits ~list_size ~ids
               ~seed:(seed + 0x31) ()))
  in
  let spec =
    Scenario.at spec ~time:((0.3 *. d) +. 2.0) (fun w ->
        let krng = Rng.create ~seed:(seed + 0x71) in
        probe w ~count:40 ~krng ~total:fresh_total ~hits:fresh_hits)
  in
  let spec =
    Scenario.at spec ~time:(0.85 *. d) (fun w ->
        let krng = Rng.create ~seed:(seed + 0x72) in
        probe w ~count:40 ~krng ~total:stale_total ~hits:stale_hits)
  in
  ignore (Scenario.run spec);
  fun outcome ->
  {
    (base_result ~regime:Churn_range outcome)
    with
    fresh_total = !fresh_total;
    fresh_hits = !fresh_hits;
    stale_total = !stale_total;
    stale_hits = !stale_hits;
  }

(* ------------------------------------------------------------------ *)

(* Every campaign ends with post-campaign convergence and the eclipse
   watch at zero tolerance. Each regime body returns how to assemble its
   result once the harness has the finished outcome. *)
let run ?(n = 60) ?(duration = 240.0) ?(seed = 7) ?(cache = false) ~regime () =
  let checks = { Regime.checks with Regime.eclipse = true } in
  let assemble, outcome =
    Regime.run checks (fun h ->
        match regime with
        | Sybil_flood -> run_sybil h ~n ~duration ~seed
        | Eclipse -> run_eclipse h ~n ~duration ~seed ~cache
        | Churn_range -> run_churn_range h ~n ~duration ~seed)
  in
  assemble outcome

let report r =
  let holds, lines =
    match r.regime with
    | Sybil_flood ->
      ( r.sybils_admitted <= r.sybil_cap,
        Printf.sprintf "admissions %d/%d granted (cap %d), refused %d" r.sybils_admitted
          r.sybil_requests r.sybil_cap r.sybil_refused
        :: List.map
             (fun c ->
               Printf.sprintf "cost %-16s requests %6d admitted %6d owned %d/%d %s" c.c_label
                 c.c_requests c.c_admitted c.c_owned list_size
                 (if c.c_success then "ECLIPSED" else "held"))
             r.cost_curve
        @ [ Printf.sprintf "id-assignment raises eclipse cost %.0fx" (cost_factor r.cost_curve) ] )
    | Eclipse ->
      ( true,
        [ Printf.sprintf "eclipsed peak %d, revocations %d, cache flushes %d" r.eclipsed_peak
            r.revocations r.cache_flushes ] )
    | Churn_range ->
      ( r.fresh_total > 0,
        [ Printf.sprintf "estimator fresh %d/%d hit, stale %d/%d hit" r.fresh_hits r.fresh_total
            r.stale_hits r.stale_total ] )
  in
  { (Regime.report r.outcome) with Regime.floor = Some (threshold r.regime); holds; lines }
