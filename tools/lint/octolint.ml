(* octolint — whole-program determinism & layering analyzer for the
   Octopus reproduction.

   The repo's load-bearing guarantee is bit-identical traces across runs:
   the CI trace-determinism job byte-compares two same-seed JSONL streams,
   and every security/anonymity figure reproduced from the paper leans on
   it. That guarantee decays one innocent-looking patch at a time — a
   [Hashtbl.iter] feeding a metric, a [Random.float] jitter, a stray
   [Printf.printf] — so this tool makes the discipline a compile-time
   contract instead of a code-review convention.

   Since PR 9 it runs in two phases. Phase 1 parses every .ml/.mli handed
   to it ([Parse] + [Ast_iterator] from compiler-libs.common; no ppx, no
   typing, no new opam deps) into an in-memory program model: per module,
   the toplevel bindings with a mutability classification, the values the
   .mli exports (with their result types), record/alias type
   declarations, opens, module aliases, and every [Longident] the module
   references. Phase 2 resolves those references against the module
   universe and runs the whole-program rules — shared-mutable escape
   analysis, the inter-directory layering graph (declared in layers.ml,
   printable as DOT with [--emit-graph]), suppression-staleness
   accounting, and dead-export detection. Per-file rules still run inside
   phase 1.

   Rules (path-scoped; each can be disabled on the CLI or suppressed
   per line with an [(* octolint: allow <rule> *)] comment):

     D1 no-poly-compare   bare [compare]/[min]/[max] and structural
                          operands under [=]/[<]/... in lib/
     D2 no-wallclock-rng  [Random.*], [Sys.time], [Unix.gettimeofday] and
                          environment reads ([Sys.getenv], [Sys.getenv_opt])
                          anywhere — randomness flows through Octo_sim.Rng,
                          configuration through explicit arguments
     D3 ordered-iteration [Hashtbl.iter]/[Hashtbl.fold] in lib/ — use
                          Octo_sim.Tbl.iter_sorted/fold_sorted
     D4 no-raw-send       [Net.send]/[Network.send] in lib/core — protocol
                          traffic rides Octo_sim.Rpc / Deployment.send
     D5 no-stdout-in-lib  [print_*]/[Printf.printf]/[Format.printf] in
                          lib/ — output goes through Trace/Metrics/Report
     D6 mli-required      every lib/**/*.ml needs a sibling .mli
     D7 compact-node-state [Hashtbl.create] in lib/core and lib/chord —
                          per-node hot state lives in Octo_sim.Imap;
                          population-level singletons carry a named
                          suppression
     D8 no-shared-mutable module-toplevel mutable state in lib/ — refs,
                          Hashtbl/array/bytes/Buffer bindings, mutable
                          records, lazy values holding them, and calls
                          whose .mli result type is a known-mutable type.
                          A mutable that neither appears in the .mli nor
                          is reachable from any exported binding is
                          reported at informational severity (escape
                          refinement); everything else is the work-list
                          for OCaml 5 domain-sharding (ROADMAP "Own
                          every piece of state, then fan out on Domain")
     L1 layering-graph    a resolved cross-directory reference that
                          violates the layer order declared in layers.ml
     S1 stale-suppression an allow-comment that is unparseable or
                          suppresses zero diagnostics (S1 itself cannot
                          be suppressed, so allowances stay honest)
     X1 dead-export       a .mli value referenced by no other module —
                          informational; [--strict] promotes it

   Severity: most rules report errors (exit 1); X1 and non-escaping D8
   report informational diagnostics, printed with an "(info)" suffix and
   ignored for the exit code unless [--strict] is given.

   A suppression comment covers diagnostics on its own line; when the
   comment sits alone on its line it also covers the next line, so

       (* octolint: allow ordered-iteration — sanctioned wrapper *)
       Hashtbl.fold ...

   reads naturally at the one place each rule's escape hatch lives. *)

(* ------------------------------------------------------------------ *)
(* Rules *)

module Rule = struct
  type t = D1 | D2 | D3 | D4 | D5 | D6 | D7 | D8 | L1 | S1 | X1

  let all = [ D1; D2; D3; D4; D5; D6; D7; D8; L1; S1; X1 ]

  let code = function
    | D1 -> "D1" | D2 -> "D2" | D3 -> "D3" | D4 -> "D4" | D5 -> "D5" | D6 -> "D6" | D7 -> "D7"
    | D8 -> "D8" | L1 -> "L1" | S1 -> "S1" | X1 -> "X1"

  let slug = function
    | D1 -> "no-poly-compare"
    | D2 -> "no-wallclock-rng"
    | D3 -> "ordered-iteration"
    | D4 -> "no-raw-send"
    | D5 -> "no-stdout-in-lib"
    | D6 -> "mli-required"
    | D7 -> "compact-node-state"
    | D8 -> "no-shared-mutable"
    | L1 -> "layering-graph"
    | S1 -> "stale-suppression"
    | X1 -> "dead-export"

  let describe = function
    | D1 -> "polymorphic compare/min/max (and structural =) in lib/; use Int.compare etc."
    | D2 -> "wall-clock, ambient RNG or environment read; draw from Octo_sim.Rng streams instead"
    | D3 -> "unordered Hashtbl traversal in lib/; use Octo_sim.Tbl.{iter,fold}_sorted"
    | D4 -> "raw Net/Network send in lib/core; protocol traffic uses Octo_sim.Rpc"
    | D5 -> "stdout from lib/; emit through Trace, Metrics or Report"
    | D6 -> "lib/ module without an interface file (.mli)"
    | D7 ->
      "Hashtbl.create in lib/core or lib/chord; per-node hot state uses Octo_sim.Imap \
       (population-level singletons get a named suppression)"
    | D8 ->
      "module-toplevel mutable state in lib/; the domain-sharding work-list — escaping \
       state is an error, module-private state is informational"
    | L1 -> "cross-directory reference violating the layer order declared in layers.ml"
    | S1 -> "octolint suppression comment that is broken or matches no diagnostic"
    | X1 -> ".mli value referenced by no other module (informational; --strict promotes)"

  let of_string s =
    match String.lowercase_ascii s with
    | "d1" | "no-poly-compare" -> Some D1
    | "d2" | "no-wallclock-rng" -> Some D2
    | "d3" | "ordered-iteration" -> Some D3
    | "d4" | "no-raw-send" -> Some D4
    | "d5" | "no-stdout-in-lib" -> Some D5
    | "d6" | "mli-required" -> Some D6
    | "d7" | "compact-node-state" -> Some D7
    | "d8" | "no-shared-mutable" -> Some D8
    | "l1" | "layering-graph" -> Some L1
    | "s1" | "stale-suppression" -> Some S1
    | "x1" | "dead-export" -> Some X1
    | _ -> None

  let compare_rule a b = String.compare (code a) (code b)
end

type severity = Err | Info

type diag = {
  file : string;
  line : int;
  col : int;
  rule : Rule.t;
  sev : severity;
  msg : string;
}

(* ------------------------------------------------------------------ *)
(* Suppression comments.

   The parse tree drops comments, so we scan the raw source once with a
   small lexer that understands nested comments, string literals (also
   inside comments, as the real lexer does), quoted strings and char
   literals. Each [(* octolint: allow r1 r2 *)] yields the set of rules
   suppressed on the comment's first line — plus the following line when
   the comment stands alone on its line(s). "all" suppresses every rule.

   Every comment carries a hit counter: phase 2's S1 rule reports any
   allow-comment that suppressed nothing, so allowances rot visibly
   instead of silently as the code under them moves. *)

module Suppress = struct
  type comment = {
    c_line : int;
    c_col : int;
    c_rules : Rule.t list option; (* None = "all" *)
    mutable c_hits : int;
  }

  type t = {
    by_line : (int, comment list) Hashtbl.t;
    mutable comments : comment list;
    mutable broken : (int * int) list;
  }

  let empty () = { by_line = Hashtbl.create 4; comments = []; broken = [] }

  let tokenize text =
    String.split_on_char ' '
      (String.map (fun c -> if c = ',' || c = '\t' || c = '\n' then ' ' else c) text)
    |> List.filter (fun s -> s <> "")

  (* Parse a comment body; a comment that says "octolint: allow" with no
     recognisable rule is reported as a broken suppression rather than
     silently ignored. *)
  let parse_comment text =
    match tokenize text with
    | "octolint:" :: "allow" :: rest | "octolint" :: ":" :: "allow" :: rest ->
      let rec take acc = function
        | tok :: more -> (
          if String.lowercase_ascii tok = "all" then `All
          else
            match Rule.of_string tok with
            | Some r -> take (r :: acc) more
            | None -> if acc = [] then `Broken else `Rules acc)
        | [] -> if acc = [] then `Broken else `Rules acc
      in
      Some (take [] rest)
    | _ -> None

  let line_is_blank_before src ~bol ~pos =
    let rec go i = i >= pos || ((src.[i] = ' ' || src.[i] = '\t') && go (i + 1)) in
    go bol

  let line_is_blank_after src ~pos =
    let n = String.length src in
    let rec go i = i >= n || src.[i] = '\n' || ((src.[i] = ' ' || src.[i] = '\t') && go (i + 1)) in
    go pos

  let attach t line c =
    let cur = Option.value (Hashtbl.find_opt t.by_line line) ~default:[] in
    Hashtbl.replace t.by_line line (c :: cur)

  (* Scan [src], returning the suppression table; broken suppression
     comments are kept as (line, col) pairs for phase 2's S1. *)
  let scan src =
    let t = empty () in
    let n = String.length src in
    let line = ref 1 in
    let bol = ref 0 in
    let i = ref 0 in
    let bump_line at = incr line; bol := at + 1 in
    let skip_string () =
      (* assumes src.[!i] = '"' *)
      incr i;
      let rec go () =
        if !i < n then begin
          (match src.[!i] with
          | '\\' -> incr i
          | '"' -> raise Exit
          | '\n' -> bump_line !i
          | _ -> ());
          incr i;
          go ()
        end
      in
      (try go () with Exit -> ());
      incr i
    in
    let skip_quoted_string () =
      (* {id|...|id} ; assumes src.[!i] = '{' and it opens a quoted string *)
      let start = !i + 1 in
      let rec ident j = if j < n && (src.[j] = '_' || (src.[j] >= 'a' && src.[j] <= 'z')) then ident (j + 1) else j in
      let id_end = ident start in
      if id_end < n && src.[id_end] = '|' then begin
        let id = String.sub src start (id_end - start) in
        let closing = "|" ^ id ^ "}" in
        let m = String.length closing in
        i := id_end + 1;
        let rec go () =
          if !i + m <= n then
            if String.sub src !i m = closing then i := !i + m
            else begin
              if src.[!i] = '\n' then bump_line !i;
              incr i;
              go ()
            end
          else i := n
        in
        go ();
        true
      end
      else false
    in
    let rec skip_comment ~depth buf =
      (* assumes we're just past an opening "(*" *)
      if !i >= n then ()
      else if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' then begin
        Buffer.add_string buf "(*";
        i := !i + 2;
        skip_comment ~depth:(depth + 1) buf
      end
      else if !i + 1 < n && src.[!i] = '*' && src.[!i + 1] = ')' then begin
        i := !i + 2;
        if depth > 0 then begin
          Buffer.add_string buf "*)";
          skip_comment ~depth:(depth - 1) buf
        end
      end
      else begin
        (match src.[!i] with
        | '"' ->
          Buffer.add_char buf ' ';
          skip_string ();
          i := !i - 1 (* skip_string advanced past the quote; realign with the incr below *)
        | '\n' -> bump_line !i; Buffer.add_char buf ' '
        | c -> Buffer.add_char buf c);
        incr i;
        skip_comment ~depth buf
      end
    in
    while !i < n do
      match src.[!i] with
      | '\n' -> bump_line !i; incr i
      | '"' -> skip_string ()
      | '{' -> if not (skip_quoted_string ()) then incr i
      | '\'' ->
        (* char literal vs type variable / attribute payload quote *)
        if !i + 1 < n && src.[!i + 1] = '\\' then begin
          (* '\n' '\123' '\xFF' — skip to the closing quote *)
          i := !i + 2;
          while !i < n && src.[!i] <> '\'' do incr i done;
          incr i
        end
        else if !i + 2 < n && src.[!i + 2] = '\'' then i := !i + 3
        else incr i
      | '(' when !i + 1 < n && src.[!i + 1] = '*' ->
        let c_line = !line and c_bol = !bol and c_start = !i in
        i := !i + 2;
        let buf = Buffer.create 32 in
        skip_comment ~depth:0 buf;
        let standalone =
          line_is_blank_before src ~bol:c_bol ~pos:c_start && line_is_blank_after src ~pos:!i
        in
        (match parse_comment (Buffer.contents buf) with
        | None -> ()
        | Some `Broken -> t.broken <- (c_line, c_start - c_bol) :: t.broken
        | Some parsed ->
          let rules =
            match parsed with `All -> None | `Rules rs -> Some rs | `Broken -> assert false
          in
          let c = { c_line; c_col = c_start - c_bol; c_rules = rules; c_hits = 0 } in
          t.comments <- c :: t.comments;
          attach t c_line c;
          (* a standalone comment (possibly multi-line) also covers the
             line after its closing delimiter *)
          if standalone then attach t (!line + 1) c)
      | _ -> incr i
    done;
    t.comments <- List.rev t.comments;
    t.broken <- List.rev t.broken;
    t

  let comment_allows c rule =
    match c.c_rules with None -> true | Some rs -> List.mem rule rs

  (* Does any comment cover [rule] on [line]? Marks a hit on every
     covering comment so S1 can tell live allowances from stale ones. *)
  let covers (t : t) ~line rule =
    match Hashtbl.find_opt t.by_line line with
    | None -> false
    | Some cs ->
      let matching = List.filter (fun c -> comment_allows c rule) cs in
      List.iter (fun c -> c.c_hits <- c.c_hits + 1) matching;
      matching <> []
end

(* ------------------------------------------------------------------ *)
(* Path scoping *)

type scope = { in_lib : bool; in_core : bool; in_node_state : bool }

let starts_with prefix p =
  String.length p >= String.length prefix && String.sub p 0 (String.length prefix) = prefix

let scope_of_path p =
  { in_lib = starts_with "lib/" p;
    in_core = starts_with "lib/core/" p;
    (* The layers holding per-node protocol state, where an unshared
       Hashtbl per node is a population-scale memory bug. *)
    in_node_state = starts_with "lib/core/" p || starts_with "lib/chord/" p }

(* "lib/sim/rng.ml" -> "lib/sim"; "bin/main.ml" -> "bin"; the directory is
   the layering-graph node. *)
let dir_of_path p =
  match String.split_on_char '/' p with
  | "lib" :: sub :: _ :: _ -> "lib/" ^ sub
  | d :: _ :: _ -> d
  | _ -> ""

let module_of_path p = String.lowercase_ascii (Filename.remove_extension (Filename.basename p))

(* ------------------------------------------------------------------ *)
(* The program model (phase 1 output) *)

open Parsetree

let flatten_ident (lid : Longident.t) =
  match Longident.flatten lid with exception _ -> [] | parts -> parts

(* Strip a leading [Stdlib.] so [Stdlib.Random.int] and [Random.int]
   match the same patterns. *)
let norm_path parts = match parts with "Stdlib" :: rest -> rest | parts -> parts

let is_cap s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* Syntactic pre-classification of a toplevel binding's mutability; the
   record / call / annotation cases need the whole-program model and are
   settled in phase 2. *)
type pre_mut =
  | PM_ref
  | PM_table
  | PM_array
  | PM_bytes
  | PM_buffer
  | PM_lazy of pre_mut
  | PM_record of string list (* field labels of a toplevel record literal *)
  | PM_call of string list (* applied function path, e.g. ["Sha256"; "init"] *)
  | PM_constr of string list * pre_mut option (* type annotation path + inner *)

type binding = {
  b_name : string; (* dotted for nested-module bindings: "Sub.x" *)
  b_line : int;
  b_col : int;
  b_pre : pre_mut option;
  b_nested : string option; (* innermost enclosing nested module, if any *)
  b_refs : string list; (* bare idents in the body, for the capture graph *)
}

type rref = { r_path : string list; r_line : int; r_col : int }

type fmodel = {
  f_path : string; (* as reported in diagnostics *)
  f_dir : string;
  f_mod : string; (* lowercase module name *)
  f_intf : bool;
  mutable f_bindings : binding list;
  mutable f_exports : (string * int * int * string list option) list;
  (* .mli values: name, line, col, result-type constructor path *)
  mutable f_export_mods : string list; (* .mli submodule names *)
  mutable f_mut_types : string list; (* record types with a mutable field *)
  mutable f_record_types : (string * string list * bool) list; (* name, labels, mutable? *)
  mutable f_type_aliases : (string * string list) list; (* type t = Path.t *)
  mutable f_opens : string list list;
  mutable f_aliases : (string * string list) list; (* module X = Path *)
  mutable f_includes : string list list; (* include Path at structure top *)
  mutable f_refs : rref list;
  f_bare : (string, unit) Hashtbl.t; (* bare value idents used anywhere *)
  f_suppress : Suppress.t;
}

let new_model ~path ~intf =
  { f_path = path; f_dir = dir_of_path path; f_mod = module_of_path path; f_intf = intf;
    f_bindings = []; f_exports = []; f_export_mods = []; f_mut_types = [];
    f_record_types = []; f_type_aliases = []; f_opens = []; f_aliases = [];
    f_includes = []; f_refs = []; f_bare = Hashtbl.create 64; f_suppress = Suppress.empty () }

let rec is_literal_ish (e : expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true (* None, [], (), true, false, nullary variants *)
  | Pexp_variant (_, None) -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident ("~-" | "~-." | "-" | "-."); _ }; _ }, [ (_, arg) ])
    -> is_literal_ish arg
  | Pexp_constraint (e, _) -> is_literal_ish e
  | _ -> false

(* Structural operands: values built inline whose comparison is
   definitely polymorphic-on-composite (tuples, populated constructors,
   records, lists, arrays). Comparing those with [=] is the classic
   latent nondeterminism / exception-on-closure hazard. *)
let is_structural (e : expression) =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) | Pexp_variant (_, Some _) -> true
  | _ -> false

let cmp_operators = [ "="; "<>"; "<"; ">"; "<="; ">=" ]
let cmp_functions = [ "compare"; "min"; "max" ]

(* -- model collection ------------------------------------------------ *)

let rec classify_expr (e : expression) : pre_mut option =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match norm_path (flatten_ident txt) with
    | [ "ref" ] -> Some PM_ref
    | [ "Hashtbl"; "create" ] -> Some PM_table
    | [ "Array"; ("make" | "create" | "init" | "of_list" | "copy" | "sub" | "append" | "concat") ] ->
      Some PM_array
    | [ "Bytes"; ("create" | "make" | "init" | "of_string" | "copy" | "sub" | "cat") ] ->
      Some PM_bytes
    | [ "Buffer"; "create" ] -> Some PM_buffer
    | [ single ] when not (is_cap single) -> None (* local helper call: opaque *)
    | path when List.exists is_cap path -> Some (PM_call path)
    | _ -> None)
  | Pexp_array _ -> Some PM_array
  | Pexp_record (fields, _) ->
    let labels =
      List.filter_map
        (fun ({ Location.txt; _ }, _) ->
          match (txt : Longident.t) with
          | Longident.Lident l -> Some l
          | Longident.Ldot (_, l) -> Some l
          | _ -> None)
        fields
    in
    Some (PM_record labels)
  | Pexp_lazy inner -> Option.map (fun c -> PM_lazy c) (classify_expr inner)
  | Pexp_constraint (inner, ty) -> (
    let inner_class = classify_expr inner in
    match ty.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> Some (PM_constr (norm_path (flatten_ident txt), inner_class))
    | _ -> inner_class)
  | _ -> None

let binding_name (p : pattern) =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

(* Bare idents referenced in an expression — the intra-module edge set of
   the capture graph used by D8's escape refinement. *)
let bare_idents_of_expr e =
  let acc = Hashtbl.create 16 in
  let super = Ast_iterator.default_iterator in
  let expr self (x : expression) =
    (match x.pexp_desc with
    | Pexp_ident { txt = Longident.Lident name; _ } -> Hashtbl.replace acc name ()
    | _ -> ());
    super.expr self x
  in
  let it = { super with expr } in
  it.expr it e;
  Hashtbl.fold (fun k () l -> k :: l) acc []

let record_type_decls (m : fmodel) (decls : type_declaration list) =
  List.iter
    (fun d ->
      let name = d.ptype_name.txt in
      (match d.ptype_kind with
      | Ptype_record labels ->
        let labs = List.map (fun l -> l.pld_name.txt) labels in
        let has_mut = List.exists (fun l -> l.pld_mutable = Mutable) labels in
        m.f_record_types <- (name, labs, has_mut) :: m.f_record_types;
        if has_mut then m.f_mut_types <- name :: m.f_mut_types
      | _ -> ());
      match d.ptype_manifest with
      | Some { ptyp_desc = Ptyp_constr ({ txt; _ }, _); _ } ->
        m.f_type_aliases <- (name, norm_path (flatten_ident txt)) :: m.f_type_aliases
      | _ -> ())
    decls

(* Structure walk collecting toplevel bindings (recursing into plain
   nested modules — their state is just as global — but not functors,
   whose bindings are fresh per application). *)
let rec collect_structure (m : fmodel) ~nested (items : structure) =
  List.iter
    (fun (item : structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match binding_name vb.pvb_pat with
            | None -> ()
            | Some name ->
              let loc = vb.pvb_pat.ppat_loc.Location.loc_start in
              let full = match nested with None -> name | Some p -> p ^ "." ^ name in
              m.f_bindings <-
                { b_name = full;
                  b_line = loc.Lexing.pos_lnum;
                  b_col = loc.Lexing.pos_cnum - loc.Lexing.pos_bol;
                  b_pre = classify_expr vb.pvb_expr;
                  b_nested = nested;
                  b_refs = bare_idents_of_expr vb.pvb_expr }
                :: m.f_bindings)
          vbs
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
        let rec strip (me : module_expr) =
          match me.pmod_desc with
          | Pmod_constraint (me, _) -> strip me
          | me -> me
        in
        (match strip pmb_expr with
        | Pmod_ident { txt; _ } ->
          m.f_aliases <- (name, norm_path (flatten_ident txt)) :: m.f_aliases
        | Pmod_structure items ->
          let prefix = match nested with None -> name | Some p -> p ^ "." ^ name in
          collect_structure m ~nested:(Some prefix) items
        | _ -> ())
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        m.f_opens <- norm_path (flatten_ident txt) :: m.f_opens
      | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        m.f_includes <- norm_path (flatten_ident txt) :: m.f_includes
      | Pstr_type (_, decls) -> record_type_decls m decls
      | _ -> ())
    items

(* Result-type constructor of a value signature: peel the arrows, keep the
   final constructor path ([val init : unit -> state] -> ["state"]). *)
let rec result_constr (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (_, _, ret) -> result_constr ret
  | Ptyp_constr ({ txt; _ }, _) -> Some (norm_path (flatten_ident txt))
  | Ptyp_poly (_, t) -> result_constr t
  | _ -> None

let collect_signature (m : fmodel) (sg : signature) =
  List.iter
    (fun (item : signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
        let loc = vd.pval_name.loc.Location.loc_start in
        m.f_exports <-
          (vd.pval_name.txt, loc.Lexing.pos_lnum,
           loc.Lexing.pos_cnum - loc.Lexing.pos_bol, result_constr vd.pval_type)
          :: m.f_exports
      | Psig_module { pmd_name = { txt = Some name; _ }; _ } ->
        m.f_export_mods <- name :: m.f_export_mods
      | Psig_type (_, decls) -> record_type_decls m decls
      | Psig_open { popen_expr = { txt; _ }; _ } ->
        m.f_opens <- norm_path (flatten_ident txt) :: m.f_opens
      | _ -> ())
    sg

(* Every Longident the file mentions — values, constructors, record
   fields, type constructors, module expressions — with its location.
   These are the raw edges phase 2 resolves against the universe. *)
let collect_refs (m : fmodel) iter_root =
  let add_ref loc (lid : Longident.t) =
    let parts = norm_path (flatten_ident lid) in
    (match parts with
    | [ single ] when not (is_cap single) -> Hashtbl.replace m.f_bare single ()
    | _ -> ());
    if List.exists is_cap parts then begin
      let p = loc.Location.loc_start in
      m.f_refs <-
        { r_path = parts; r_line = p.Lexing.pos_lnum; r_col = p.Lexing.pos_cnum - p.Lexing.pos_bol }
        :: m.f_refs
    end
  in
  let super = Ast_iterator.default_iterator in
  let expr self (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> add_ref loc txt
    | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
      (* [let module W = Path in ...] — scoped aliases are folded into the
         module-wide alias table; an over-approximation a linter can live
         with, and required to see uses spelled through short names. *)
      let target = norm_path (flatten_ident txt) in
      if target <> [ name ] then m.f_aliases <- (name, target) :: m.f_aliases
    | Pexp_construct ({ txt; loc }, _) -> add_ref loc txt
    | Pexp_field (_, { txt; loc }) -> add_ref loc txt
    | Pexp_setfield (_, { txt; loc }, _) -> add_ref loc txt
    | Pexp_record (fields, _) ->
      List.iter (fun ({ Location.txt; loc }, _) -> add_ref loc txt) fields
    | Pexp_new { txt; loc } -> add_ref loc txt
    | _ -> ());
    super.expr self e
  in
  let pat self (p : pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; loc }, _) -> add_ref loc txt
    | Ppat_record (fields, _) ->
      List.iter (fun ({ Location.txt; loc }, _) -> add_ref loc txt) fields
    | _ -> ());
    super.pat self p
  in
  let typ self (t : core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; loc }, _) -> add_ref loc txt
    | Ptyp_class ({ txt; loc }, _) -> add_ref loc txt
    | _ -> ());
    super.typ self t
  in
  let module_expr self (me : module_expr) =
    (match me.pmod_desc with
    | Pmod_ident { txt; loc } -> add_ref loc txt
    | _ -> ());
    super.module_expr self me
  in
  let module_type self (mt : module_type) =
    (match mt.pmty_desc with
    | Pmty_ident { txt; loc } | Pmty_typeof { pmod_desc = Pmod_ident { txt; loc }; _ } ->
      add_ref loc txt
    | _ -> ());
    super.module_type self mt
  in
  let open_declaration self (od : open_declaration) =
    (match od.popen_expr.pmod_desc with
    | Pmod_ident { txt; _ } -> m.f_opens <- norm_path (flatten_ident txt) :: m.f_opens
    | _ -> ());
    super.open_declaration self od
  in
  let it = { super with expr; pat; typ; module_expr; module_type; open_declaration } in
  iter_root it

(* ------------------------------------------------------------------ *)
(* Diagnostics sink *)

let diags : diag list ref = ref []
let enabled_rules : Rule.t list ref = ref Rule.all
let enabled r = List.mem r !enabled_rules

(* Central emission point: rule gating, then suppression (which marks
   hits for S1), then the sink. *)
let emit (m : fmodel) ~line ~col rule sev msg =
  if enabled rule && not (Suppress.covers m.f_suppress ~line rule) then
    diags := { file = m.f_path; line; col; rule; sev; msg } :: !diags

let emit_loc m ~loc rule sev msg =
  let p = loc.Location.loc_start in
  emit m ~line:p.Lexing.pos_lnum ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol) rule sev msg

(* ------------------------------------------------------------------ *)
(* Phase 1: per-file AST rules (D1–D5, D7) *)

let lint_ast (m : fmodel) structure =
  let scope = scope_of_path m.f_path in
  (* Idents consumed by the surrounding-application check, so the bare
     ident pass does not double-report them. *)
  let handled : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let mark (e : expression) = Hashtbl.replace handled e.pexp_loc.loc_start.pos_cnum () in
  let seen (e : expression) = Hashtbl.mem handled e.pexp_loc.loc_start.pos_cnum in
  let check_path_ident ~loc parts =
    match norm_path parts with
    | "Random" :: _ ->
      emit_loc m ~loc Rule.D2 Err "ambient Random breaks seed reproducibility; draw from Octo_sim.Rng"
    | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
      emit_loc m ~loc Rule.D2 Err "wall-clock reads diverge across runs; use Engine.now simulated time"
    | [ "Sys"; ("getenv" | "getenv_opt") ] ->
      emit_loc m ~loc Rule.D2 Err
        "environment reads are ambient input that diverges across runs; pass the value explicitly"
    | [ "Hashtbl"; ("iter" | "fold") ] when scope.in_lib ->
      emit_loc m ~loc Rule.D3 Err
        "Hashtbl traversal is bucket-ordered; use Octo_sim.Tbl.iter_sorted/fold_sorted"
    | [ "Hashtbl"; "create" ] when scope.in_node_state ->
      emit_loc m ~loc Rule.D7 Err
        "per-node hot state belongs in Octo_sim.Imap (compact, deterministic iteration); \
         population-level tables need a named '(* octolint: allow compact-node-state ... *)'"
    | [ ("Net" | "Network"); "send" ] when scope.in_core ->
      emit_loc m ~loc Rule.D4 Err "raw send bypasses the Rpc substrate; use Rpc.call or Deployment.send"
    | ([ "Printf"; "printf" ] | [ "Format"; "printf" ]) when scope.in_lib ->
      emit_loc m ~loc Rule.D5 Err "lib/ must not write stdout; route through Trace/Metrics/Report"
    | [ ("print_endline" | "print_string" | "print_newline" | "print_int" | "print_float" | "print_char") ]
      when scope.in_lib ->
      emit_loc m ~loc Rule.D5 Err "lib/ must not write stdout; route through Trace/Metrics/Report"
    | _ -> ()
  in
  let check_bare_poly ~loc name =
    if scope.in_lib then
      if List.mem name cmp_functions then
        emit_loc m ~loc Rule.D1 Err
          (Printf.sprintf "polymorphic %s; use a typed comparison (Int.%s, Float.%s, ...)" name name name)
      else if List.mem name cmp_operators then
        emit_loc m ~loc Rule.D1 Err
          (Printf.sprintf "polymorphic (%s) escapes as a closure; pass a typed comparison" name)
  in
  let super = Ast_iterator.default_iterator in
  let expr self (e : expression) =
    (match e.pexp_desc with
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ } as head), args)
      when List.mem op cmp_functions || List.mem op cmp_operators ->
      if scope.in_lib then begin
        let operands = List.map snd args in
        let exempt =
          List.length operands = 2
          &&
          if List.mem op cmp_functions then List.exists is_literal_ish operands
          else not (List.exists is_structural operands)
        in
        mark head;
        if not exempt then
          if List.mem op cmp_functions then
            emit_loc m ~loc:head.pexp_loc Rule.D1 Err
              (Printf.sprintf "polymorphic %s on non-literal operands; use Int.%s/Float.%s" op op op)
          else
            emit_loc m ~loc:head.pexp_loc Rule.D1 Err
              (Printf.sprintf "structural (%s) on composite operands; compare fields explicitly" op)
      end
      else mark head
    | Pexp_ident { txt; loc } -> (
      if not (seen e) then
        match txt with
        | Longident.Lident name ->
          check_bare_poly ~loc name;
          check_path_ident ~loc [ name ]
        | _ -> check_path_ident ~loc (flatten_ident txt))
    | _ -> ());
    super.expr self e
  in
  let it = { super with expr } in
  it.structure it structure

(* ------------------------------------------------------------------ *)
(* Phase 2: the module universe and the whole-program rules *)

module Universe = struct
  type entry = { mutable impl : fmodel option; mutable intf : fmodel option }

  let modules : (string, entry) Hashtbl.t = Hashtbl.create 64
  (* key: dir ^ ":" ^ module *)

  let key dir md = dir ^ ":" ^ md

  let entry_of dir md =
    let k = key dir md in
    match Hashtbl.find_opt modules k with
    | Some e -> e
    | None ->
      let e = { impl = None; intf = None } in
      Hashtbl.add modules k e;
      e

  let add (m : fmodel) =
    let e = entry_of m.f_dir m.f_mod in
    if m.f_intf then e.intf <- Some m else e.impl <- Some m

  let find dir md = Hashtbl.find_opt modules (key dir md)
  let mem dir md = Hashtbl.mem modules (key dir md)

  let fold f init =
    (* deterministic order for reporting *)
    Hashtbl.fold (fun k e acc -> (k, e) :: acc) modules []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.fold_left (fun acc (_, e) -> f acc e) init
end

(* A resolved reference target: a directory, optionally narrowed to a
   module and a trailing path (value / submodule components). *)
type target = { t_dir : string; t_mod : string option; t_rest : string list }

let rec resolve_parts ~(m : fmodel) ~depth parts =
  if depth > 8 then None
  else
    match parts with
    | head :: rest when is_cap head -> (
      (* [module X = X] re-exports the outer module of the same name;
         expanding that alias would loop, so treat it as no alias. *)
      match
        match List.assoc_opt head m.f_aliases with
        | Some [ t ] when t = head -> None
        | a -> a
      with
      | Some alias_target -> resolve_parts ~m ~depth:(depth + 1) (alias_target @ rest)
      | None -> (
        match Layers.dir_of_namespace head with
        | Some dir -> (
          match rest with
          | sub :: more when is_cap sub && Universe.mem dir (String.lowercase_ascii sub) ->
            Some { t_dir = dir; t_mod = Some (String.lowercase_ascii sub); t_rest = more }
          | _ -> Some { t_dir = dir; t_mod = None; t_rest = rest })
        | None ->
          let lower = String.lowercase_ascii head in
          if Universe.mem m.f_dir lower && lower <> m.f_mod then
            Some { t_dir = m.f_dir; t_mod = Some lower; t_rest = rest }
          else
            (* a module brought into scope by a file-level open of a
               library namespace: open Octo_sim ... Rng.int *)
            List.find_map
              (fun op ->
                match op with
                | [ ns ] -> (
                  match Layers.dir_of_namespace ns with
                  | Some dir when Universe.mem dir lower ->
                    Some { t_dir = dir; t_mod = Some lower; t_rest = rest }
                  | _ -> None)
                | _ -> None)
              m.f_opens))
    | _ -> None

let resolve (m : fmodel) parts = resolve_parts ~m ~depth:0 parts

(* -- mutable-type lookup --------------------------------------------- *)

let builtin_mutable = function
  | [ "ref" ] | [ "array" ] | [ "bytes" ] | [ "Bytes"; "t" ] | [ "Hashtbl"; "t" ]
  | [ "Buffer"; "t" ] | [ "Queue"; "t" ] | [ "Stack"; "t" ] -> true
  | _ -> false

let models_of dir md =
  match Universe.find dir md with
  | None -> []
  | Some e -> List.filter_map Fun.id [ e.impl; e.intf ]

(* Is the type named by [path] (as written in module [m]) mutable? Record
   types with mutable fields count, as do single-step aliases landing on
   a builtin mutable or such a record. *)
let rec type_is_mutable ~(m : fmodel) ~depth path =
  if depth > 8 then false
  else if builtin_mutable path then true
  else
    let local_lookup (models : fmodel list) tname =
      List.exists (fun fm -> List.mem tname fm.f_mut_types) models
      || List.exists
           (fun fm ->
             match List.assoc_opt tname fm.f_type_aliases with
             | Some alias -> type_is_mutable ~m:fm ~depth:(depth + 1) alias
             | None -> false)
           models
    in
    match path with
    | [ tname ] -> local_lookup (models_of m.f_dir m.f_mod) tname
    | _ -> (
      let rev = List.rev path in
      match rev with
      | tname :: modpath_rev when not (is_cap tname) -> (
        let modpath = List.rev modpath_rev in
        match resolve m modpath with
        | Some { t_dir; t_mod = Some md; t_rest = [] } -> local_lookup (models_of t_dir md) tname
        | _ -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* File discovery *)

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

let rec walk acc p =
  if is_dir p then
    Sys.readdir p |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           let child = Filename.concat p entry in
           if is_dir child then
             (* Skip build output, VCS internals and the linter's own
                known-bad fixture corpus during recursive descent; a
                fixture directory passed explicitly is still scanned. *)
             if entry = "_build" || entry = "lint_fixtures" || String.length entry > 0 && entry.[0] = '.'
             then acc
             else walk acc child
           else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli" then
             child :: acc
           else acc)
         acc
  else p :: acc

let relativize ~root p =
  match root with
  | None -> p
  | Some root ->
    let root = if Filename.check_suffix root "/" then root else root ^ "/" in
    if String.length p > String.length root && String.sub p 0 (String.length root) = root then
      String.sub p (String.length root) (String.length p - String.length root)
    else p

(* ------------------------------------------------------------------ *)
(* Phase-1 driver: parse one file into its model (running the per-file
   AST rules as we go). *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_errors = ref 0

let report_parse_error ~scope_path exn =
  incr parse_errors;
  let loc =
    match Location.error_of_exn exn with
    | Some (`Ok e) -> e.Location.main.Location.loc.Location.loc_start
    | _ -> Lexing.{ pos_fname = scope_path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 }
  in
  Printf.eprintf "%s:%d:%d: [parse-error] file does not parse; octolint cannot check it\n"
    scope_path loc.Lexing.pos_lnum (loc.Lexing.pos_cnum - loc.Lexing.pos_bol)

let load_file ~root path : fmodel option =
  let scope_path = relativize ~root path in
  let src = read_file path in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf scope_path;
  let intf = Filename.check_suffix path ".mli" in
  let m = new_model ~path:scope_path ~intf in
  (* replace the empty suppression table with the real scan *)
  let sup = Suppress.scan src in
  let m = { m with f_suppress = sup } in
  if intf then
    match Parse.interface lexbuf with
    | exception exn -> report_parse_error ~scope_path exn; None
    | sg ->
      collect_signature m sg;
      collect_refs m (fun it -> it.Ast_iterator.signature it sg);
      Some m
  else
    match Parse.implementation lexbuf with
    | exception exn -> report_parse_error ~scope_path exn; None
    | structure ->
      collect_structure m ~nested:None structure;
      collect_refs m (fun it -> it.Ast_iterator.structure it structure);
      lint_ast m structure;
      Some m

(* ------------------------------------------------------------------ *)
(* Phase 2 rules *)

(* D6: interface presence is a per-module fact. *)
let check_d6 () =
  Universe.fold
    (fun () e ->
      match (e.impl, e.intf) with
      | Some m, None when (scope_of_path m.f_path).in_lib ->
        emit m ~line:1 ~col:0 Rule.D6 Err "lib/ module has no interface; add a sibling .mli"
      | _ -> ())
    ()

(* The set of toplevel binding names reachable from the module's exported
   surface: the .mli values themselves plus everything their bodies
   (transitively) touch. A mutable binding outside this set cannot be
   observed across modules, so the escape refinement lowers it to Info. *)
let escaping_names (impl : fmodel) (intf : fmodel option) =
  let exported =
    match intf with
    | None -> List.map (fun b -> b.b_name) impl.f_bindings (* no .mli: assume all escape *)
    | Some i -> List.map (fun (n, _, _, _) -> n) i.f_exports
  in
  let by_name = Hashtbl.create 32 in
  List.iter (fun b -> if b.b_nested = None then Hashtbl.replace by_name b.b_name b) impl.f_bindings;
  let reach = Hashtbl.create 32 in
  let rec visit n =
    if not (Hashtbl.mem reach n) then begin
      Hashtbl.replace reach n ();
      match Hashtbl.find_opt by_name n with
      | Some b -> List.iter (fun r -> if Hashtbl.mem by_name r then visit r) b.b_refs
      | None -> ()
    end
  in
  List.iter visit exported;
  reach

let mut_desc = function
  | PM_ref -> "ref cell"
  | PM_table -> "Hashtbl"
  | PM_array -> "array"
  | PM_bytes -> "bytes buffer"
  | PM_buffer -> "Buffer"
  | PM_lazy _ -> "lazy mutable"
  | PM_record _ -> "mutable-field record"
  | PM_call p -> Printf.sprintf "mutable value from %s" (String.concat "." p)
  | PM_constr (p, _) -> Printf.sprintf "mutable %s" (String.concat "." p)

(* Settle a pre-classification against the whole-program model. *)
let rec finalize_mut (m : fmodel) (pre : pre_mut) : pre_mut option =
  match pre with
  | PM_ref | PM_table | PM_array | PM_bytes | PM_buffer -> Some pre
  | PM_lazy inner -> Option.map (fun c -> PM_lazy c) (finalize_mut m inner)
  | PM_constr (path, inner) ->
    if type_is_mutable ~m ~depth:0 path then Some pre
    else Option.bind inner (finalize_mut m)
  | PM_record labels ->
    (* Match the literal's labels against known record declarations; only
       flag when every candidate type carries a mutable field, so an
       ambiguous label set never false-positives. *)
    let candidates models =
      List.concat_map
        (fun (fm : fmodel) ->
          List.filter
            (fun (_, labs, _) -> List.for_all (fun l -> List.mem l labs) labels)
            fm.f_record_types)
        models
    in
    let local = candidates (models_of m.f_dir m.f_mod) in
    let pool =
      if local <> [] then local
      else
        candidates
          (Universe.fold (fun acc e -> (Option.to_list e.impl @ Option.to_list e.intf) @ acc) [])
    in
    if pool <> [] && List.for_all (fun (_, _, mut) -> mut) pool then Some pre else None
  | PM_call path -> (
    match resolve m path with
    | Some { t_dir; t_mod = Some md; t_rest = [ v ] } when not (is_cap v) ->
      let ret =
        List.find_map
          (fun (fm : fmodel) ->
            List.find_map (fun (n, _, _, ret) -> if n = v then Some ret else None) fm.f_exports)
          (models_of t_dir md)
      in
      (match ret with
      | Some (Some ret_path) ->
        let owner = List.find_map (fun fm -> Some fm) (models_of t_dir md) in
        let ctx = Option.value owner ~default:m in
        if type_is_mutable ~m:ctx ~depth:0 ret_path then Some pre else None
      | _ -> None)
    | _ -> None)

let check_d8 () =
  Universe.fold
    (fun () e ->
      match e.impl with
      | Some impl when (scope_of_path impl.f_path).in_lib ->
        let escaping = escaping_names impl e.intf in
        let exported_mods =
          match e.intf with
          | None -> None (* no .mli: every nested module is reachable *)
          | Some i -> Some i.f_export_mods
        in
        List.iter
          (fun b ->
            match Option.bind b.b_pre (finalize_mut impl) with
            | None -> ()
            | Some cls ->
              let escapes =
                match b.b_nested with
                | None -> Hashtbl.mem escaping b.b_name
                | Some sub -> (
                  let head = match String.index_opt sub '.' with
                    | Some i -> String.sub sub 0 i
                    | None -> sub
                  in
                  match exported_mods with None -> true | Some ms -> List.mem head ms)
              in
              if escapes then
                emit impl ~line:b.b_line ~col:b.b_col Rule.D8 Err
                  (Printf.sprintf
                     "toplevel %s '%s' is shared mutable state reachable from the module's \
                      exports; multicore-unsafe — shard it, hand it to Deployment, or add a \
                      named allowance with its domain plan"
                     (mut_desc cls) b.b_name)
              else
                emit impl ~line:b.b_line ~col:b.b_col Rule.D8 Info
                  (Printf.sprintf
                     "toplevel %s '%s' is module-private mutable state (not reachable from \
                      the .mli); low risk, but still single-domain only"
                     (mut_desc cls) b.b_name))
          (List.rev impl.f_bindings)
      | _ -> ())
    ()

(* L1: one diagnostic per (file, offending target directory), anchored at
   the first reference; the full edge multiset feeds the DOT graph. *)
let edge_counts : (string * string, int) Hashtbl.t = Hashtbl.create 32
let edge_violations : (string * string, unit) Hashtbl.t = Hashtbl.create 8

let check_l1 all_models =
  List.iter
    (fun (m : fmodel) ->
      let seen_dirs : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let note_edge dst =
        let k = (m.f_dir, dst) in
        Hashtbl.replace edge_counts k (1 + Option.value (Hashtbl.find_opt edge_counts k) ~default:0)
      in
      List.iter
        (fun (r : rref) ->
          match resolve m r.r_path with
          | Some { t_dir; _ } when t_dir <> m.f_dir ->
            note_edge t_dir;
            if not (Layers.allowed ~src:m.f_dir ~dst:t_dir) then begin
              Hashtbl.replace edge_violations (m.f_dir, t_dir) ();
              if not (Hashtbl.mem seen_dirs t_dir) then begin
                Hashtbl.replace seen_dirs t_dir ();
                emit m ~line:r.r_line ~col:r.r_col Rule.L1 Err
                  (Printf.sprintf
                     "layering violation: %s (rank %s) must not depend on %s (rank %s); \
                      declared order lives in tools/lint/layers.ml"
                     m.f_dir
                     (match Layers.rank_of_dir m.f_dir with Some r -> string_of_int r | None -> "-")
                     t_dir
                     (match Layers.rank_of_dir t_dir with Some r -> string_of_int r | None -> "-"))
              end
            end
          | _ -> ())
        (List.rev m.f_refs))
    all_models

(* X1: cross-module value-use marking, then report unreferenced exports.
   Uses are (a) resolved qualified references M.v, (b) bare idents in a
   file that opens M, (c) everything re-exported by a module that
   [include]s M. *)
let check_x1 all_models =
  let used : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let ukey dir md v = dir ^ ":" ^ md ^ ":" ^ v in
  let mark dir md v = Hashtbl.replace used (ukey dir md v) () in
  List.iter
    (fun (m : fmodel) ->
      List.iter
        (fun (r : rref) ->
          match resolve m r.r_path with
          | Some { t_dir; t_mod = Some md; t_rest } when (t_dir, md) <> (m.f_dir, m.f_mod) -> (
            match t_rest with
            | [ v ] when not (is_cap v) -> mark t_dir md v
            | _ -> ())
          | _ -> ())
        m.f_refs;
      (* opens: any export of the opened module matching a bare ident *)
      List.iter
        (fun op ->
          match resolve m op with
          | Some { t_dir; t_mod = Some md; t_rest = [] } when (t_dir, md) <> (m.f_dir, m.f_mod) ->
            List.iter
              (fun (fm : fmodel) ->
                List.iter
                  (fun (v, _, _, _) -> if Hashtbl.mem m.f_bare v then mark t_dir md v)
                  fm.f_exports)
              (models_of t_dir md)
          | _ -> ())
        m.f_opens)
    all_models;
  (* include propagation: a use of (includer, v) is a use of (includee, v) *)
  List.iter
    (fun (m : fmodel) ->
      List.iter
        (fun inc ->
          match resolve m inc with
          | Some { t_dir; t_mod = Some md; t_rest = [] } ->
            List.iter
              (fun (fm : fmodel) ->
                List.iter
                  (fun (v, _, _, _) ->
                    if Hashtbl.mem used (ukey m.f_dir m.f_mod v) then mark t_dir md v)
                  fm.f_exports)
              (models_of t_dir md)
          | _ -> ())
        m.f_includes)
    all_models;
  Universe.fold
    (fun () e ->
      match e.intf with
      | Some intf when (scope_of_path intf.f_path).in_lib ->
        List.iter
          (fun (v, line, col, _) ->
            if not (Hashtbl.mem used (ukey intf.f_dir intf.f_mod v)) then
              emit intf ~line ~col Rule.X1 Info
                (Printf.sprintf
                   "exported value '%s' is referenced by no other module; prune it from the \
                    .mli or point a caller at it" v))
          (List.rev intf.f_exports)
      | _ -> ())
    ()

(* S1: broken suppressions, and live ones that caught nothing. Staleness
   is only judged when every rule a comment names is enabled in this run
   (an --only invocation must not smear healthy allowances). *)
let check_s1 all_models =
  let full_set = List.for_all (fun r -> enabled r) Rule.all in
  List.iter
    (fun (m : fmodel) ->
      if enabled Rule.S1 then begin
        List.iter
          (fun (line, col) ->
            diags :=
              { file = m.f_path; line; col; rule = Rule.S1; sev = Err;
                msg = "unparseable octolint suppression; expected (* octolint: allow <rule>... *)" }
              :: !diags)
          m.f_suppress.Suppress.broken;
        List.iter
          (fun (c : Suppress.comment) ->
            let judged =
              match c.c_rules with
              | None -> full_set
              | Some rs -> List.for_all enabled rs
            in
            if judged && c.c_hits = 0 then
              diags :=
                { file = m.f_path; line = c.c_line; col = c.c_col; rule = Rule.S1; sev = Err;
                  msg =
                    Printf.sprintf
                      "stale suppression (%s) matches no diagnostic; delete it or tighten it"
                      (match c.c_rules with
                      | None -> "all"
                      | Some rs -> String.concat "," (List.map Rule.slug rs)) }
                :: !diags)
          m.f_suppress.Suppress.comments
      end)
    all_models

(* ------------------------------------------------------------------ *)
(* Layering graph DOT output *)

let emit_graph oc =
  let dirs =
    Hashtbl.fold (fun (a, b) _ acc -> a :: b :: acc) edge_counts []
    |> List.sort_uniq String.compare
    |> List.filter (fun d -> Layers.rank_of_dir d <> None)
  in
  output_string oc "digraph layering {\n";
  output_string oc "  rankdir=BT;\n";
  output_string oc "  node [shape=box, fontname=\"monospace\"];\n";
  List.iter
    (fun d ->
      let r = Option.value (Layers.rank_of_dir d) ~default:(-1) in
      Printf.fprintf oc "  \"%s\" [label=\"%s\\nrank %d\"];\n" d d r)
    dirs;
  let edges =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) edge_counts []
    |> List.sort (fun ((a1, b1), _) ((a2, b2), _) ->
           let c = String.compare a1 a2 in
           if c <> 0 then c else String.compare b1 b2)
  in
  List.iter
    (fun ((src, dst), count) ->
      if Layers.rank_of_dir src <> None && Layers.rank_of_dir dst <> None then
        if Hashtbl.mem edge_violations (src, dst) then
          Printf.fprintf oc "  \"%s\" -> \"%s\" [label=\"%d refs\", color=red, penwidth=2];\n"
            src dst count
        else Printf.fprintf oc "  \"%s\" -> \"%s\" [label=\"%d refs\"];\n" src dst count)
    edges;
  output_string oc "}\n"

(* ------------------------------------------------------------------ *)
(* Output *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_json ds =
  print_string "[";
  List.iteri
    (fun i d ->
      if i > 0 then print_string ",";
      Printf.printf
        "\n  {\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"slug\":\"%s\",\
         \"severity\":\"%s\",\"message\":\"%s\"}"
        (json_escape d.file) d.line d.col (Rule.code d.rule) (Rule.slug d.rule)
        (match d.sev with Err -> "error" | Info -> "info")
        (json_escape d.msg))
    ds;
  print_string (if ds = [] then "]\n" else "\n]\n")

let print_text ds =
  List.iter
    (fun d ->
      Printf.printf "%s:%d:%d: [%s %s] %s%s\n" d.file d.line d.col (Rule.code d.rule)
        (Rule.slug d.rule) d.msg
        (match d.sev with Err -> "" | Info -> " (info)"))
    ds

(* ------------------------------------------------------------------ *)
(* Driver *)

let usage () =
  print_string
    "usage: octolint [options] <file-or-dir>...\n\
     \n\
     Two-phase whole-program analyzer for the Octopus determinism &\n\
     layering rules: phase 1 parses every .ml/.mli into a program model,\n\
     phase 2 resolves cross-module references and runs the graph rules.\n\
     Exits non-zero if any error-severity violation is found.\n\
     \n\
     options:\n\
     \  --only d3,d5       run only these rules (codes or slugs)\n\
     \  --disable d1       run all rules except these\n\
     \  --relative-to DIR  scope and report paths relative to DIR\n\
     \  --json             machine-readable output: a JSON array with one\n\
     \                     object per diagnostic (file/line/col/rule/\n\
     \                     slug/severity/message)\n\
     \  --strict           promote informational diagnostics (X1, private\n\
     \                     D8) to errors\n\
     \  --emit-graph FILE  write the inter-directory layering graph as\n\
     \                     DOT to FILE ('-' for stdout) after analysis\n\
     \  --list-rules       print the rule table and exit\n\
     \  -h, --help         this message\n\
     \n\
     Suppress a single line with  (* octolint: allow <rule> [<rule>...] *)\n\
     placed on (or alone on the line above) the offending line; the rule\n\
     name 'all' suppresses every rule for that line. A suppression that\n\
     catches nothing is itself reported (S1).\n"

let list_rules () =
  List.iter
    (fun r -> Printf.printf "%s %-18s %s\n" (Rule.code r) (Rule.slug r) (Rule.describe r))
    Rule.all

let parse_rule_set what s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun t -> t <> "")
  |> List.map (fun t ->
         match Rule.of_string t with
         | Some r -> r
         | None ->
           Printf.eprintf "octolint: unknown rule %S in %s\n" t what;
           exit 2)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let paths = ref [] in
  let only = ref None in
  let disabled = ref [] in
  let root = ref None in
  let json = ref false in
  let strict = ref false in
  let graph_out = ref None in
  let rec parse = function
    | [] -> ()
    | ("-h" | "--help") :: _ -> usage (); exit 0
    | "--list-rules" :: _ -> list_rules (); exit 0
    | "--only" :: v :: rest -> only := Some (parse_rule_set "--only" v); parse rest
    | "--disable" :: v :: rest -> disabled := parse_rule_set "--disable" v @ !disabled; parse rest
    | "--relative-to" :: v :: rest -> root := Some v; parse rest
    | "--json" :: rest -> json := true; parse rest
    | "--strict" :: rest -> strict := true; parse rest
    | "--emit-graph" :: v :: rest -> graph_out := Some v; parse rest
    | ("--only" | "--disable" | "--relative-to" | "--emit-graph") :: [] ->
      Printf.eprintf "octolint: missing argument\n"; exit 2
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' ->
      Printf.eprintf "octolint: unknown option %s\n" flag; exit 2
    | p :: rest -> paths := p :: !paths; parse rest
  in
  parse args;
  if !paths = [] then begin usage (); exit 2 end;
  enabled_rules :=
    (let base = match !only with Some rs -> rs | None -> Rule.all in
     List.filter (fun r -> not (List.mem r !disabled)) base);
  let files = List.fold_left walk [] (List.rev !paths) |> List.sort String.compare in
  (* Phase 1: parse everything into the model (per-file rules run here). *)
  let all_models = List.filter_map (load_file ~root:!root) files in
  List.iter Universe.add all_models;
  (* Phase 2: whole-program rules over the universe. *)
  check_d6 ();
  check_d8 ();
  check_l1 all_models;
  check_x1 all_models;
  check_s1 all_models;
  let ds =
    List.map (fun d -> if !strict && d.sev = Info then { d with sev = Err } else d) !diags
    |> List.sort (fun a b ->
           let c = String.compare a.file b.file in
           if c <> 0 then c
           else
             let c = Int.compare a.line b.line in
             if c <> 0 then c
             else
               let c = Int.compare a.col b.col in
               if c <> 0 then c else Rule.compare_rule a.rule b.rule)
  in
  (match !graph_out with
  | None -> ()
  | Some "-" -> emit_graph stdout
  | Some f ->
    let oc = open_out f in
    emit_graph oc;
    close_out oc);
  if !json then print_json ds else print_text ds;
  let errs = List.filter (fun d -> d.sev = Err) ds in
  let infos = List.filter (fun d -> d.sev = Info) ds in
  if ds <> [] then
    Printf.eprintf "octolint: %d violation%s, %d informational in %d file%s\n" (List.length errs)
      (if List.length errs = 1 then "" else "s")
      (List.length infos)
      (List.length (List.sort_uniq String.compare (List.map (fun d -> d.file) ds)))
      (if List.length ds = 1 then "" else "s");
  if !parse_errors > 0 then exit 2 else if errs <> [] then exit 1 else exit 0
