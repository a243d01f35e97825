let run ?(n = 80) ?(duration = 120.0) ?(seed = 7) ?(revoke_one = false) ?(misroute = false)
    () =
  let checks = { Regime.checks with Regime.convergence = false } in
  snd
    (Regime.run checks (fun h ->
         let spec = Regime.on_init h (Scenario.make ~seed ~n ~duration ()) in
         let spec =
           if misroute then
             Scenario.on_init spec (fun w ->
                 Octopus.World.set_misroute w (fun (p : Octo_chord.Peer.t) ->
                     { p with Octo_chord.Peer.id = p.id + 1 }))
           else spec
         in
         let spec =
           if revoke_one then
             Scenario.at spec ~time:(duration /. 2.0) (fun w ->
                 (* A legitimate mid-run ejection: an honest node revoked by
                    fiat to exercise the revoked-identity invariant. *)
                 Octopus.World.revoke w (n / 2))
           else spec
         in
         ignore (Scenario.run spec)))

let report (o : Regime.outcome) =
  {
    (Regime.report o) with
    Regime.lines =
      [ Printf.sprintf "events %d captured (%d retained)" (Octo_sim.Trace.seen o.Regime.trace)
          (List.length (Octo_sim.Trace.events o.Regime.trace)) ];
  }
