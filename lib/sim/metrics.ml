module Dist = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : bool;
  }

  let create () = { data = [||]; len = 0; sorted = true }

  let add t v =
    let cap = Array.length t.data in
    if t.len = cap then begin
      let ndata = Array.make (Stdlib.max 64 (2 * cap)) 0.0 in
      Array.blit t.data 0 ndata 0 t.len;
      t.data <- ndata
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1;
    t.sorted <- false

  let count t = t.len

  let ensure_sorted t =
    if not t.sorted then begin
      let view = Array.sub t.data 0 t.len in
      Array.sort Float.compare view;
      Array.blit view 0 t.data 0 t.len;
      t.sorted <- true
    end

  let mean t =
    if t.len = 0 then 0.0
    else begin
      let acc = ref 0.0 in
      for i = 0 to t.len - 1 do
        acc := !acc +. t.data.(i)
      done;
      !acc /. float_of_int t.len
    end

  let percentile t p =
    if t.len = 0 then 0.0
    else begin
      ensure_sorted t;
      let idx = int_of_float (p *. float_of_int (t.len - 1)) in
      t.data.(Stdlib.max 0 (Stdlib.min (t.len - 1) idx))
    end

  let median t = percentile t 0.5

  let min t =
    if t.len = 0 then 0.0
    else begin
      ensure_sorted t;
      t.data.(0)
    end

  let max t =
    if t.len = 0 then 0.0
    else begin
      ensure_sorted t;
      t.data.(t.len - 1)
    end

  let cdf t ~points =
    if t.len = 0 then []
    else begin
      ensure_sorted t;
      let points = Stdlib.max 2 points in
      List.init points (fun k ->
          let frac = float_of_int k /. float_of_int (points - 1) in
          let idx = int_of_float (frac *. float_of_int (t.len - 1)) in
          (t.data.(idx), frac))
    end

  let to_sorted_array t =
    ensure_sorted t;
    Array.sub t.data 0 t.len
end

module Sketch = struct
  (* DDSketch-style log-bucketed histogram. With growth factor gamma, any
     positive value v maps to bucket ceil(log_gamma v), whose midpoint
     estimate 2*gamma^i/(gamma+1) is within (gamma-1)/(gamma+1) relative
     error of every value in the bucket. gamma = 1.02 gives ~0.99%. *)
  let gamma = 1.02
  let relative_error = (gamma -. 1.0) /. (gamma +. 1.0)
  let log_gamma = log gamma

  (* Fixed index range covering [1e-9, 1e9]: ceil(log_gamma 1e-9) = -1046,
     ceil(log_gamma 1e9) = 1047. Values outside are clamped to the edge
     buckets, so the error bound holds only inside the covered range --
     nine decades on either side of 1.0 is far wider than any latency or
     bandwidth figure the simulator produces. *)
  let min_index = -1047
  let max_index = 1047
  let n_buckets = max_index - min_index + 1

  type t = {
    counts : int array;
    mutable zeros : int; (* samples <= 0.0, reported as value 0.0 *)
    mutable count : int;
    (* sum/min/max live in a float array rather than mutable record
       fields: float-array stores never allocate, while writing a boxed
       float into a mixed record would. [record] must be allocation-free
       so a million-query run costs no GC pressure per sample. *)
    stats : float array; (* [| sum; min; max |] *)
  }

  let create () =
    {
      counts = Array.make n_buckets 0;
      zeros = 0;
      count = 0;
      stats = [| 0.0; infinity; neg_infinity |];
    }

  let record t v =
    t.count <- t.count + 1;
    t.stats.(0) <- t.stats.(0) +. v;
    if v < t.stats.(1) then t.stats.(1) <- v;
    if v > t.stats.(2) then t.stats.(2) <- v;
    if v <= 0.0 then t.zeros <- t.zeros + 1
    else begin
      let i = int_of_float (Float.ceil (log v /. log_gamma)) in
      let i =
        if i < min_index then min_index else if i > max_index then max_index else i
      in
      t.counts.(i - min_index) <- t.counts.(i - min_index) + 1
    end

  let count t = t.count
  let sum t = t.stats.(0)
  let mean t = if t.count = 0 then 0.0 else t.stats.(0) /. float_of_int t.count
  let min t = if t.count = 0 then 0.0 else t.stats.(1)
  let max t = if t.count = 0 then 0.0 else t.stats.(2)
  let value_of_index i = 2.0 *. exp (float_of_int i *. log_gamma) /. (gamma +. 1.0)

  (* Same rank convention as Dist.percentile: index floor(q * (n-1)) of the
     sorted samples, so the two agree up to the bucket error bound. *)
  let quantile t q =
    if t.count = 0 then 0.0
    else begin
      let rank = int_of_float (q *. float_of_int (t.count - 1)) in
      let rank = Stdlib.max 0 (Stdlib.min (t.count - 1) rank) in
      if rank < t.zeros then 0.0
      else begin
        let remaining = ref (rank - t.zeros) in
        let result = ref t.stats.(2) in
        (try
           for j = 0 to n_buckets - 1 do
             let c = t.counts.(j) in
             if c > 0 then
               if !remaining < c then begin
                 result := value_of_index (j + min_index);
                 raise Exit
               end
               else remaining := !remaining - c
           done
         with Exit -> ());
        !result
      end
    end

  let buckets t =
    let acc = ref [] in
    for j = n_buckets - 1 downto 0 do
      if t.counts.(j) > 0 then acc := (j + min_index, t.counts.(j)) :: !acc
    done;
    let base = !acc in
    if t.zeros > 0 then (Stdlib.min_int, t.zeros) :: base else base

  let cdf t ~points =
    if t.count = 0 then []
    else begin
      let points = Stdlib.max 2 points in
      List.init points (fun k ->
          let frac = float_of_int k /. float_of_int (points - 1) in
          (quantile t frac, frac))
    end
end

module Series = struct
  type kind = Sum | Gauge

  type t = {
    bucket : float;
    table : (int, float) Hashtbl.t;
    mutable kind : kind;
    mutable max_bucket : int;
  }

  let create ~bucket =
    assert (bucket > 0.0);
    { bucket; table = Hashtbl.create 64; kind = Sum; max_bucket = -1 }

  let idx t time = int_of_float (time /. t.bucket)

  let touch t i = if i > t.max_bucket then t.max_bucket <- i

  let add t ~time v =
    let i = idx t time in
    touch t i;
    let cur = Option.value ~default:0.0 (Hashtbl.find_opt t.table i) in
    Hashtbl.replace t.table i (cur +. v)

  let set t ~time v =
    t.kind <- Gauge;
    let i = idx t time in
    touch t i;
    Hashtbl.replace t.table i v

  let rows t =
    if t.max_bucket < 0 then []
    else begin
      let last = ref 0.0 in
      List.init (t.max_bucket + 1) (fun i ->
          let time = float_of_int i *. t.bucket in
          let v =
            match (Hashtbl.find_opt t.table i, t.kind) with
            | Some v, _ -> v
            | None, Sum -> 0.0
            | None, Gauge -> !last
          in
          last := v;
          (time, v))
    end

  let cumulative t =
    let acc = ref 0.0 in
    List.map
      (fun (time, v) ->
        acc := !acc +. v;
        (time, !acc))
      (rows t)
end

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.1f" v
  else if Float.abs v >= 1.0 then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.4f" v

module Table = struct
  let render ~header rows =
    let all = header :: rows in
    let cols = List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) 0 all in
    let widths = Array.make cols 0 in
    let measure row =
      List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row
    in
    List.iter measure all;
    let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
    let line row = String.concat "  " (List.mapi pad row) in
    let sep =
      String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
    in
    let body = List.map line rows in
    String.concat "\n" ((line header :: sep :: body) @ [ "" ])
end
