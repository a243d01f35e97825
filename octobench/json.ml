(* The little JSON octobench reads and writes: child result lines, the
   --json report and the driver-facing last line. Every string it
   writes is a name, a unit or a gate message in printable ASCII, so
   nothing ever needs escaping; [write] refuses anything else. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

let plain c = c >= ' ' && c <= '~' && c <> '"' && c <> '\\'

(* Shortest text that reads back as the same float. *)
let num_text f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> Buffer.add_string b (if Float.is_finite f then num_text f else "null")
  | Str s ->
    if not (String.for_all plain s) then invalid_arg ("Json: unsupported character in " ^ s);
    Buffer.add_char b '"';
    Buffer.add_string b s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; write b x) xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        write b (Str k);
        Buffer.add_string b ": ";
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos)) in
  let rec skip () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r') then begin
      incr pos;
      skip ()
    end
  in
  let expect c = skip (); if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let word w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w then begin
      pos := !pos + String.length w;
      v
    end
    else fail "unknown literal"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          let k = match value () with Str k -> k | _ -> fail "expected a key" in
          expect ':';
          let acc = (k, value ()) :: acc in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields acc)
          else (expect '}'; Obj (List.rev acc))
        in
        fields []
      end
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else begin
        let rec items acc =
          let acc = value () :: acc in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items acc)
          else (expect ']'; Arr (List.rev acc))
        in
        items []
      end
    | '"' ->
      incr pos;
      let start = !pos in
      while !pos < n && s.[!pos] <> '"' do
        if s.[!pos] = '\\' then fail "escapes are not supported";
        incr pos
      done;
      if !pos >= n then fail "unterminated string";
      let v = String.sub s start (!pos - start) in
      incr pos;
      Str v
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do incr pos done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f -> Num f
       | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing text";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_num = function Num f -> f | Null -> Float.nan | _ -> raise (Parse_error "expected a number")
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_list = function Arr xs -> xs | _ -> raise (Parse_error "expected an array")
let to_obj = function Obj kvs -> kvs | _ -> raise (Parse_error "expected an object")

let field k v =
  match member k v with Some x -> x | None -> raise (Parse_error ("missing field " ^ k))
