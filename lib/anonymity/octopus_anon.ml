module Rng = Octo_sim.Rng
module Tbl = Octo_sim.Tbl

type params = {
  alpha : float;
  num_dummies : int;
  walk_length : int;
  trials : int;
  presim_samples : int;
  single_path : bool;
}

let default_params =
  {
    alpha = 0.01;
    num_dummies = 6;
    walk_length = 3;
    trials = 400;
    presim_samples = 2500;
    single_path = false;
  }

type result = { entropy : float; ideal : float; leak : float }

let log2 x = if x <= 0.0 then 0.0 else Float.log2 x

(* One simulated query of a lookup: its queried rank, whether it is a
   dummy, and the compromise draws of its private path legs. *)
type query = { rank : int; dummy : bool; c_mal : bool; d_mal : bool; e_mal : bool }

let observed q = q.d_mal || q.e_mal

(* Queries linkable to a common point of the lookup: normally C_i must be
   compromised to expose the shared B; with a single shared (C, D) pair
   (the §4.2 ablation) every *observed* query already shares the same
   visible exit relay, so observation alone groups them. *)
let linkable_to_b ~single_path q =
  if single_path then observed q else observed q && q.c_mal

type lookup_obs = {
  a_mal : bool;
  queries : query list; (* in query order, dummies interleaved *)
}

(* Interleave [d] dummy queries (to uniform random nodes) into the path. *)
let simulate_lookup model rng ~params ~path =
  let f = Ring_model.f model in
  let draw () = Rng.coin rng f in
  (* Single-path ablation: one (C, D) pair shared by every query. *)
  let shared_c = draw () and shared_d = draw () in
  let leg () = if params.single_path then (shared_c, shared_d) else (draw (), draw ()) in
  let base =
    List.map
      (fun rank ->
        let c_mal, d_mal = leg () in
        { rank; dummy = false; c_mal; d_mal; e_mal = Ring_model.malicious model rank })
      path
  in
  let dummies =
    List.init params.num_dummies (fun _ ->
        let rank = Ring_model.random_rank model in
        let c_mal, d_mal = leg () in
        { rank; dummy = true; c_mal; d_mal; e_mal = Ring_model.malicious model rank })
  in
  (* Random interleaving. *)
  let merged = Array.of_list (base @ dummies) in
  (* Keep base order, insert dummies at random positions: do a tagged sort
     by position keys that preserve the base ordering. *)
  let n_total = Array.length merged in
  let keys =
    Array.mapi
      (fun i q ->
        if q.dummy then (Rng.unit_float rng, i) else (float_of_int i /. float_of_int n_total, i))
      merged
  in
  Array.sort
    (fun (a, i) (b, j) ->
      let c = Float.compare a b in
      if c <> 0 then c else Int.compare i j)
    keys;
  let queries = Array.to_list (Array.map (fun (_, i) -> merged.(i)) keys) in
  { a_mal = draw (); queries }

(* Linkable-to-I queries: direct bridges require A; one linkable query
   promotes every B-linkable query (shared B). Walk shortcuts add
   f^(l+1). *)
let linkable_queries model rng ~params (lo : lookup_obs) =
  let f = Ring_model.f model in
  let single_path = params.single_path in
  let walk_shortcut () = Rng.coin rng (f ** float_of_int (params.walk_length + 1)) in
  let direct =
    List.filter
      (fun q ->
        (lo.a_mal && linkable_to_b ~single_path q) || (observed q && walk_shortcut ()))
      lo.queries
  in
  if direct = [] then []
  else List.filter (linkable_to_b ~single_path) lo.queries

(* Probability that a concurrent lookup has >= 1 query linkable to its
   initiator (used to size the decoy sets without simulating each). *)
let p_lookup_linkable model ~params ~mean_path =
  let f = Ring_model.f model in
  let p_obs = 1.0 -. ((1.0 -. f) ** 2.0) in
  let p_link_query = f *. f *. p_obs in
  let q = mean_path +. float_of_int params.num_dummies in
  1.0 -. ((1.0 -. p_link_query) ** q)

(* ------------------------------------------------------------------ *)
(* H(I): §6.2 *)

let initiator model ?(params = default_params) () =
  let f = Ring_model.f model in
  let n = Ring_model.n model in
  let rng = Rng.split (Ring_model.rng model) in
  let p_link = f *. (1.0 -. ((1.0 -. f) ** 2.0)) in
  let presim = Presim.build model ~samples:params.presim_samples ~p_link ~num_dummies:params.num_dummies () in
  let ideal = log2 ((1.0 -. f) *. float_of_int n) in
  let n_concurrent = max 1 (int_of_float (params.alpha *. float_of_int n)) in
  let p_iobs = 1.0 -. ((1.0 -. f) ** 2.0) in
  let p_decoy_link = p_lookup_linkable model ~params ~mean_path:(Presim.mean_path_length presim) in
  let total = ref 0.0 in
  for _ = 1 to params.trials do
    let h =
      (* The adversary must observe T (§6.1): T is observed iff malicious. *)
      if not (Rng.coin rng f) then ideal
      else begin
        let from = Ring_model.random_honest_rank model in
        let key = Ring_model.random_key model in
        let t_rank = Ring_model.owner_rank model ~key in
        let path = Ring_model.lookup_path model ~from ~key in
        let lo = simulate_lookup model rng ~params ~path in
        let linkable = linkable_queries model rng ~params lo in
        let r_l_t = List.filter (fun q -> not q.dummy) linkable in
        if r_l_t = [] then begin
          (* Eq (5): no linkable non-dummy query. *)
          if Rng.coin rng p_iobs then begin
            let observed_honest =
              1
              + Array.fold_left ( + ) 0
                  (Array.init (n_concurrent - 1) (fun _ -> if Rng.coin rng p_iobs then 1 else 0))
            in
            log2 (float_of_int observed_honest)
          end
          else ideal
        end
        else begin
          (* Eq (6)/(7): weight each concurrent lookup by xi of the minimum
             distance from its linkable queries to T. *)
          let own_min =
            List.fold_left
              (fun acc q -> Int.min acc (Ring_model.rank_distance_cw model q.rank t_rank))
              max_int linkable
          in
          let own_weight = Presim.xi presim own_min in
          (* Decoy lookups in Psi^l: their queried nodes are unrelated to
             T, so min distances are minima of uniform draws. *)
          let decoys = ref [] in
          for _ = 1 to n_concurrent - 1 do
            if Rng.coin rng p_decoy_link then begin
              let k = 1 + Rng.int rng 3 in
              let dmin = ref max_int in
              for _ = 1 to k do
                dmin := Int.min !dmin (Rng.int rng n)
              done;
              decoys := Presim.xi presim !dmin :: !decoys
            end
          done;
          Entropy.shannon (own_weight :: !decoys)
        end
      end
    in
    total := !total +. h
  done;
  let entropy = !total /. float_of_int params.trials in
  { entropy; ideal; leak = ideal -. entropy }

(* ------------------------------------------------------------------ *)
(* H(T): Appendix III *)

(* Entropy of a distribution given as (rank -> mass) plus a uniform
   remainder spread over [spread] ranks with total mass [rest]. *)
let entropy_mixture masses ~rest ~spread =
  (* Rank-sorted traversal: float accumulation must not depend on bucket
     order or the entropy figures wobble in the last bits across runs. *)
  let total = Tbl.fold_sorted ~cmp:Int.compare (fun _ m acc -> acc +. m) masses 0.0 +. rest in
  if total <= 0.0 then 0.0
  else begin
    let h = ref 0.0 in
    Tbl.iter_sorted ~cmp:Int.compare
      (fun _ m ->
        if m > 0.0 then begin
          let p = m /. total in
          h := !h -. (p *. log2 p)
        end)
      masses;
    if rest > 0.0 && spread > 0 then begin
      let p_each = rest /. total /. float_of_int spread in
      if p_each > 0.0 then
        h := !h -. (rest /. total *. log2 p_each)
    end;
    !h
  end

(* All non-empty subsets of a (bounded) query list that pass the
   Appendix III filter; each with its chi weight and estimated range. *)
let filtered_subsets model presim queries =
  let qs = Array.of_list queries in
  let n = Array.length qs in
  let n = min n 10 in
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let subset = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then subset := qs.(i) :: !subset
    done;
    let ranks = List.map (fun q -> q.rank) !subset in
    if Range_attack.passes_filter model ranks then begin
      match Range_attack.estimate model ranks with
      | Some (lo, size) ->
        let weight =
          Presim.chi presim ~count:(List.length ranks)
            ~largest_hop:(Range_attack.largest_hop model ranks)
        in
        out := (weight, lo, size) :: !out
      | None -> ()
    end
  done;
  !out

let range_distribution model presim subsets =
  let masses : (int, float) Hashtbl.t = Hashtbl.create 256 in
  let total_w = List.fold_left (fun acc (w, _, _) -> acc +. w) 0.0 subsets in
  if total_w > 0.0 then
    List.iter
      (fun (w, lo, size) ->
        let p_s = w /. total_w in
        let size = min size 4096 in
        for i = 1 to size do
          let rank = (lo + i) mod Ring_model.n model in
          let g = Presim.gamma presim ~loc:i ~size in
          let cur = Option.value ~default:0.0 (Hashtbl.find_opt masses rank) in
          Hashtbl.replace masses rank (cur +. (p_s *. g))
        done)
      subsets;
  masses

let target model ?(params = default_params) () =
  let f = Ring_model.f model in
  let n = Ring_model.n model in
  let rng = Rng.split (Ring_model.rng model) in
  let p_link = f *. (1.0 -. ((1.0 -. f) ** 2.0)) in
  let presim = Presim.build model ~samples:params.presim_samples ~p_link ~num_dummies:params.num_dummies () in
  let ideal = log2 ((1.0 -. f) *. float_of_int n) in
  let h_max = log2 (float_of_int n) in
  let n_concurrent = max 1 (int_of_float (params.alpha *. float_of_int n)) in
  let p_iobs = 1.0 -. ((1.0 -. f) ** 2.0) in
  (* Hm (Eq 10): linkable queries are all dummies — only the malicious
     concurrent targets stand out. *)
  let h_m () =
    let mal_targets = max 1 (int_of_float (float_of_int n_concurrent *. f)) in
    ((1.0 -. f) *. ideal) +. (f *. log2 (float_of_int mal_targets))
  in
  let p_query_blink = f *. (1.0 -. ((1.0 -. f) ** 2.0)) in
  let p_lookup_blink =
    1.0 -. ((1.0 -. p_query_blink) ** (Presim.mean_path_length presim +. float_of_int params.num_dummies))
  in
  let total = ref 0.0 in
  for _ = 1 to params.trials do
    let h =
      if not (Rng.coin rng p_iobs) then h_max (* I not observed: Eq 8, H(T|on) *)
      else begin
        let from = Ring_model.random_honest_rank model in
        let key = Ring_model.random_key model in
        let path = Ring_model.lookup_path model ~from ~key in
        let lo = simulate_lookup model rng ~params ~path in
        let linkable = linkable_queries model rng ~params lo in
        if linkable <> [] then begin
          (* o_l: Eq (9). *)
          let r_l = List.filter (fun q -> not q.dummy) linkable in
          if r_l = [] then h_m ()
          else begin
            let subsets = filtered_subsets model presim linkable in
            if subsets = [] then h_m ()
            else entropy_mixture (range_distribution model presim subsets) ~rest:0.0 ~spread:0
          end
        end
        else begin
          let b_linked = List.filter (linkable_to_b ~single_path:params.single_path) lo.queries in
          let observed_qs = List.filter observed lo.queries in
          if b_linked <> [] then begin
            (* Case 2 (Eq 15-17): queries grouped by shared B; every
               concurrent lookup with B-linked queries is a candidate. *)
            let r_b = List.filter (fun q -> not q.dummy) b_linked in
            if r_b = [] then h_m ()
            else begin
              let m =
                1
                + Array.fold_left ( + ) 0
                    (Array.init (n_concurrent - 1) (fun _ ->
                         if Rng.coin rng p_lookup_blink then 1 else 0))
              in
              let subsets = filtered_subsets model presim b_linked in
              let own = range_distribution model presim subsets in
              (* ψI is one of m candidates; the others spread their mass
                 over unrelated ranges (~150 ranks each). *)
              let own_weight = 1.0 /. float_of_int m in
              Hashtbl.filter_map_inplace (fun _ v -> Some (v *. own_weight)) own;
              let rest = 1.0 -. own_weight in
              let spread = max 1 ((m - 1) * 150) in
              let h' = entropy_mixture own ~rest ~spread in
              (f *. log2 (float_of_int (max 1 (int_of_float (float_of_int n_concurrent *. f)))))
              +. ((1.0 -. f) *. h')
            end
          end
          else if observed_qs <> [] then begin
            (* Case 3 (Eq 18-21): observed but fully disassociated. *)
            let r_o = List.filter (fun q -> not q.dummy) observed_qs in
            if r_o = [] then h_m ()
            else begin
              let p_obs_q = 1.0 -. ((1.0 -. f) ** 2.0) in
              let total_observed =
                max 1
                  (int_of_float
                     (float_of_int n_concurrent
                     *. (Presim.mean_path_length presim +. float_of_int params.num_dummies)
                     *. p_obs_q))
              in
              (* Each observed query is equally likely to be E_I; the true
                 one gives a successor-span range. *)
              let own = Hashtbl.create 64 in
              let span = 64 in
              let e_i =
                List.fold_left
                  (fun acc q ->
                    match acc with
                    | None -> Some q.rank
                    | Some cur ->
                      let t_rank = Ring_model.owner_rank model ~key in
                      if
                        Ring_model.rank_distance_cw model q.rank t_rank
                        < Ring_model.rank_distance_cw model cur t_rank
                      then Some q.rank
                      else acc)
                  None r_o
              in
              (match e_i with
              | Some lo_rank ->
                let w = 1.0 /. float_of_int total_observed in
                for i = 1 to span do
                  let rank = (lo_rank + i) mod n in
                  let g = Presim.gamma presim ~loc:i ~size:span in
                  Hashtbl.replace own rank (w *. g)
                done
              | None -> ());
              let rest = 1.0 -. (1.0 /. float_of_int total_observed) in
              let spread = max 1 ((total_observed - 1) * span) in
              let h' = entropy_mixture own ~rest ~spread in
              (f *. log2 (float_of_int (max 1 (int_of_float (float_of_int n_concurrent *. f)))))
              +. ((1.0 -. f) *. h')
            end
          end
          else h_m () (* Case 1: nothing observed. *)
        end
      end
    in
    total := !total +. h
  done;
  let entropy = !total /. float_of_int params.trials in
  { entropy; ideal; leak = ideal -. entropy }
