type mid = { mid_cls : string; mid_name : string; mid_arity : int }

let mid cls (key : Jir.Ast.meth_key) =
  { mid_cls = cls; mid_name = key.mk_name; mid_arity = key.mk_arity }

let mid_of_meth cls m = mid cls (Jir.Ast.key_of_meth m)

let pp_mid ppf m = Fmt.pf ppf "%s.%s/%d" m.mid_cls m.mid_name m.mid_arity

type site = { s_in : mid; s_stmt : int }

let pp_site ppf s = Fmt.pf ppf "%a@@%d" pp_mid s.s_in s.s_stmt

type alloc_site = { a_site : site; a_cls : string }

type op_site = { o_site : site; o_kind : Framework.Api.kind }

type infl_site = {
  v_site : site;
  v_layout : string;
  v_path : int list;
  v_cls : string;
  v_vid : string option;
}

type view_abs = V_infl of infl_site | V_alloc of alloc_site

type value =
  | V_view of view_abs
  | V_act of string
  | V_obj of alloc_site
  | V_layout_id of int
  | V_view_id of int
  | V_layout_top
  | V_view_id_top

(* The raw resource id standing for "some id the analysis cannot
   resolve" in id rows (SetId(v, ⊤)).  Real resource ids are
   non-negative, so -1 can never collide with a window entry. *)
let top_view_id_raw = -1

type listener_abs = L_alloc of alloc_site | L_act of string

type holder = H_act of string | H_dialog of alloc_site

type t = N_var of mid * string | N_field of string | N_ret of mid

let class_of_view = function V_infl i -> i.v_cls | V_alloc a -> a.a_cls

(* Clone [n] of local [x] is named ["x#n"].  The lexer rejects '#' in
   identifiers, so no source local can take a clone's name.  The
   suffixes recur across every context-sensitive extraction; the table
   keeps the inliner's hot path an array read. *)
let clone_suffixes = Array.init 1024 (fun i -> "#" ^ string_of_int i)

let clone_var name n =
  name ^ if n < 1024 then Array.unsafe_get clone_suffixes n else "#" ^ string_of_int n

(* Backward scan: most names end in a letter, so a non-clone is
   rejected after one character. *)
let is_clone_var name =
  let last = String.length name - 1 in
  let rec scan i =
    i >= 0
    && match String.unsafe_get name i with
       | '0' .. '9' -> scan (i - 1)
       | '#' -> i < last
       | _ -> false
  in
  scan last

(* The implicit options-menu object of an activity (menu extension).
   Both the static analysis and the dynamic semantics construct this
   same structural site, keeping abstractions aligned; "<options-menu>"
   cannot collide with source method names. *)
let menu_site activity =
  {
    a_site = { s_in = { mid_cls = activity; mid_name = "<options-menu>"; mid_arity = 0 }; s_stmt = 0 };
    a_cls = "Menu";
  }

let menu_owner (a : alloc_site) =
  if a.a_site.s_in.mid_name = "<options-menu>" then Some a.a_site.s_in.mid_cls else None

let menu_item_site (op : site) = { a_site = op; a_cls = "MenuItem" }

(* The implicit instance of a declaratively placed fragment
   (<fragment android:name="F"/>): identified by the fragment class and
   the placeholder's inflated-view identity, so the static analysis and
   the dynamic semantics agree. *)
let declared_fragment_site cls (i : infl_site) =
  let path = String.concat "." (List.map string_of_int i.v_path) in
  {
    a_site =
      {
        s_in =
          {
            mid_cls = cls;
            mid_name =
              Printf.sprintf "<fragment>@%s[%s]#%s.%s/%d@%d" i.v_layout path i.v_site.s_in.mid_cls
                i.v_site.s_in.mid_name i.v_site.s_in.mid_arity i.v_site.s_stmt;
            mid_arity = 0;
          };
        s_stmt = 0;
      };
    a_cls = cls;
  }

let view_of_value = function V_view v -> Some v | _ -> None

(* Explicit comparisons for everything the solver keys sets and tables
   on.  Polymorphic compare walks the representation generically (slow
   on variants full of strings) and silently breaks if a field ever
   becomes abstract; these spell out the same ordering field by field,
   so switching away from [Stdlib.compare] does not reorder any set.
   The [==] fast paths matter: propagation pushes the same value boxes
   around the graph, so set membership tests usually hit a physically
   shared element before any string is compared. *)

let compare_mid a b =
  if a == b then 0
  else
  let c = String.compare a.mid_cls b.mid_cls in
  if c <> 0 then c
  else
    let c = String.compare a.mid_name b.mid_name in
    if c <> 0 then c else Int.compare a.mid_arity b.mid_arity

let compare_site a b =
  if a == b then 0
  else
  let c = compare_mid a.s_in b.s_in in
  if c <> 0 then c else Int.compare a.s_stmt b.s_stmt

let compare_alloc a b =
  if a == b then 0
  else
  let c = compare_site a.a_site b.a_site in
  if c <> 0 then c else String.compare a.a_cls b.a_cls

let compare_infl a b =
  if a == b then 0
  else
  let c = compare_site a.v_site b.v_site in
  if c <> 0 then c
  else
    let c = String.compare a.v_layout b.v_layout in
    if c <> 0 then c
    else
      let c = List.compare Int.compare a.v_path b.v_path in
      if c <> 0 then c
      else
        let c = String.compare a.v_cls b.v_cls in
        if c <> 0 then c else Option.compare String.compare a.v_vid b.v_vid

let compare_view a b =
  if a == b then 0
  else
  match (a, b) with
  | V_infl x, V_infl y -> compare_infl x y
  | V_alloc x, V_alloc y -> compare_alloc x y
  | V_infl _, V_alloc _ -> -1
  | V_alloc _, V_infl _ -> 1

let compare_value a b =
  if a == b then 0
  else
  match (a, b) with
  | V_view x, V_view y -> compare_view x y
  | V_act x, V_act y -> String.compare x y
  | V_obj x, V_obj y -> compare_alloc x y
  | V_layout_id x, V_layout_id y -> Int.compare x y
  | V_view_id x, V_view_id y -> Int.compare x y
  | V_layout_top, V_layout_top -> 0
  | V_view_id_top, V_view_id_top -> 0
  | a, b ->
      let tag = function
        | V_view _ -> 0
        | V_act _ -> 1
        | V_obj _ -> 2
        | V_layout_id _ -> 3
        | V_view_id _ -> 4
        | V_layout_top -> 5
        | V_view_id_top -> 6
      in
      Int.compare (tag a) (tag b)

let compare_listener a b =
  match (a, b) with
  | L_alloc x, L_alloc y -> compare_alloc x y
  | L_act x, L_act y -> String.compare x y
  | L_alloc _, L_act _ -> -1
  | L_act _, L_alloc _ -> 1

let compare_holder a b =
  match (a, b) with
  | H_act x, H_act y -> String.compare x y
  | H_dialog x, H_dialog y -> compare_alloc x y
  | H_act _, H_dialog _ -> -1
  | H_dialog _, H_act _ -> 1

let compare a b =
  if a == b then 0
  else
  match (a, b) with
  | N_var (m1, v1), N_var (m2, v2) ->
      let c = compare_mid m1 m2 in
      if c <> 0 then c else String.compare v1 v2
  | N_field f1, N_field f2 -> String.compare f1 f2
  | N_ret m1, N_ret m2 -> compare_mid m1 m2
  | a, b ->
      let tag = function N_var _ -> 0 | N_field _ -> 1 | N_ret _ -> 2 in
      Int.compare (tag a) (tag b)

let compare_op_site a b =
  let c = compare_site a.o_site b.o_site in
  if c <> 0 then c else Framework.Api.compare_kind a.o_kind b.o_kind

let equal a b = compare a b = 0

let equal_view a b = compare_view a b = 0

let equal_value a b = compare_value a b = 0

let equal_listener a b = compare_listener a b = 0

let equal_holder a b = compare_holder a b = 0

(* Explicit hashes, paired with the explicit equalities above so
   hashed containers never fall back to the polymorphic hash (which
   walks the whole representation and caps its traversal).  FNV-1a
   style mixing; string leaves still use [Hashtbl.hash], which hashes
   string contents directly. *)

let mix h1 h2 = (h1 * 0x01000193) lxor h2

let hash_string (s : string) = Hashtbl.hash s

let hash_mid m = mix (mix (hash_string m.mid_cls) (hash_string m.mid_name)) m.mid_arity

let hash_site s = mix (hash_mid s.s_in) s.s_stmt

let hash_alloc a = mix (hash_site a.a_site) (hash_string a.a_cls)

let hash_infl i =
  let h = mix (hash_site i.v_site) (hash_string i.v_layout) in
  let h = List.fold_left (fun h p -> mix h p) h i.v_path in
  let h = mix h (hash_string i.v_cls) in
  match i.v_vid with None -> mix h 1 | Some vid -> mix h (hash_string vid)

let hash_view = function
  | V_infl i -> mix 3 (hash_infl i)
  | V_alloc a -> mix 5 (hash_alloc a)

let hash_value = function
  | V_view v -> mix 7 (hash_view v)
  | V_act a -> mix 11 (hash_string a)
  | V_obj a -> mix 13 (hash_alloc a)
  | V_layout_id id -> mix 17 id
  | V_view_id id -> mix 19 id
  | V_layout_top -> mix 53 1
  | V_view_id_top -> mix 59 1

let hash_listener = function
  | L_alloc a -> mix 23 (hash_alloc a)
  | L_act a -> mix 29 (hash_string a)

let hash_holder = function
  | H_act a -> mix 31 (hash_string a)
  | H_dialog a -> mix 37 (hash_alloc a)

let hash = function
  | N_var (m, v) -> mix 41 (mix (hash_mid m) (hash_string v))
  | N_field f -> mix 43 (hash_string f)
  | N_ret m -> mix 47 (hash_mid m)

let pp ppf = function
  | N_var (m, v) -> Fmt.pf ppf "%a:%s" pp_mid m v
  | N_field f -> Fmt.pf ppf "field:%s" f
  | N_ret m -> Fmt.pf ppf "ret(%a)" pp_mid m

let pp_path ppf path = Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any ".") Fmt.int) path

let pp_alloc ppf a = Fmt.pf ppf "%s@@%a" a.a_cls pp_site a.a_site

let pp_view ppf = function
  | V_infl i ->
      Fmt.pf ppf "%s@@%s[%a]#%a" i.v_cls i.v_layout pp_path i.v_path pp_site i.v_site;
      (match i.v_vid with Some vid -> Fmt.pf ppf "(id=%s)" vid | None -> ())
  | V_alloc a -> pp_alloc ppf a

let pp_value ppf = function
  | V_view v -> pp_view ppf v
  | V_act a -> Fmt.pf ppf "activity:%s" a
  | V_obj a -> pp_alloc ppf a
  | V_layout_id id -> Fmt.pf ppf "layout:0x%x" id
  | V_view_id id -> Fmt.pf ppf "id:0x%x" id
  | V_layout_top -> Fmt.pf ppf "layout:top"
  | V_view_id_top -> Fmt.pf ppf "id:top"

let pp_listener ppf = function
  | L_alloc a -> pp_alloc ppf a
  | L_act a -> Fmt.pf ppf "activity:%s" a

let pp_holder ppf = function
  | H_act a -> Fmt.pf ppf "activity:%s" a
  | H_dialog a -> Fmt.pf ppf "dialog:%a" pp_alloc a

let pp_op_site ppf o = Fmt.pf ppf "%a@@%a" Framework.Api.pp_kind o.o_kind pp_site o.o_site
