module Trace = Octo_sim.Trace
module Invariant = Octopus.Invariant

type checks = { capacity : int; grace : float option; convergence : bool; eclipse : bool }

let checks = { capacity = 1 lsl 18; grace = None; convergence = true; eclipse = false }

type t = {
  checks : checks;
  sink : Trace.t;
  mutable attached : Invariant.t option;
  mutable lookups_done : int;
  mutable lookups_converged : int;
}

let trace t = t.sink

let attach t w =
  let c =
    match t.checks.grace with
    | None -> Invariant.create w
    | Some grace -> Invariant.create ~grace w
  in
  Invariant.attach c t.sink;
  t.attached <- Some c;
  Trace.subscribe t.sink (fun ev ->
      match ev.Trace.data with
      | Trace.Lookup_done { owner_addr; _ } ->
        t.lookups_done <- t.lookups_done + 1;
        if owner_addr >= 0 then t.lookups_converged <- t.lookups_converged + 1
      | _ -> ())

let on_init t spec = Scenario.on_init spec (attach t)

let checker t =
  match t.attached with Some c -> c | None -> invalid_arg "Regime.checker: not attached"

type outcome = {
  trace : Trace.t;
  checker : Invariant.t;
  lookups_done : int;
  lookups_converged : int;
}

let run checks body =
  let t =
    {
      checks;
      sink = Trace.create ~capacity:checks.capacity ();
      attached = None;
      lookups_done = 0;
      lookups_converged = 0;
    }
  in
  Trace.install t.sink;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let x = body t in
      let c = checker t in
      if checks.convergence then Invariant.check_convergence c;
      if checks.eclipse then ignore (Invariant.check_eclipse ~allowed:0 c);
      Invariant.finish c;
      ( x,
        {
          trace = t.sink;
          checker = c;
          lookups_done = t.lookups_done;
          lookups_converged = t.lookups_converged;
        } ))

type report = {
  outcome : outcome;
  ok : int;
  total : int;
  floor : float option;
  holds : bool;
  lines : string list;
  json : string option;
}

let report outcome =
  {
    outcome;
    ok = outcome.lookups_converged;
    total = outcome.lookups_done;
    floor = None;
    holds = true;
    lines = [];
    json = None;
  }

let success_rate r = if r.total = 0 then 0.0 else float_of_int r.ok /. float_of_int r.total

let passed r =
  r.holds
  && match r.floor with None -> true | Some f -> r.total > 0 && success_rate r >= f

let result_line r =
  Printf.sprintf "lookups %3d/%3d ok (%.1f%%, %s)" r.ok r.total (100. *. success_rate r)
    (match r.floor with
    | None -> "no floor"
    | Some f -> Printf.sprintf "floor %.0f%%" (100. *. f))
