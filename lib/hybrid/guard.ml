(** Guards and invariants.

    The paper's guard function [g] assigns each edge a guard set, and
    [inv] assigns each location an invariant set (Section II-A, items 3
    and 6). We represent both as conjunctions of atomic half-space
    constraints [x ⋈ c] over single variables. This class is closed under
    the operations the executor needs (evaluation, exact
    boundary-crossing times under constant-rate flows) and coincides with
    clock constraints on the timed fragment used by the model checker. *)

type cmp = Lt | Le | Gt | Ge | Eq

type atom = { var : Var.t; cmp : cmp; bound : float }

(** A conjunction of atoms; [[]] is [true] (the whole space). *)
type t = atom list

let always : t = []

(* Numeric slack for comparisons: guards like [x >= 3] must be considered
   enabled when the executor lands at [x = 3 - 1e-12] after float
   round-off. *)
let eps = 1e-9

let atom var cmp bound = { var; cmp; bound }
let ( <. ) var bound = atom var Lt bound
let ( <=. ) var bound = atom var Le bound
let ( >. ) var bound = atom var Gt bound
let ( >=. ) var bound = atom var Ge bound
let ( =. ) var bound = atom var Eq bound

let conj atoms : t = atoms

(* The one definition of an atom's truth, inlined into the flat loops. *)
let[@inline] cmp_holds cmp ~bound value =
  match cmp with
  | Lt -> value < bound +. eps
  | Le -> value <= bound +. eps
  | Gt -> value > bound -. eps
  | Ge -> value >= bound -. eps
  | Eq -> Float.abs (value -. bound) <= eps

let atom_holds { cmp; bound; _ } value = cmp_holds cmp ~bound value

let holds guard valuation =
  List.for_all (fun a -> atom_holds a (Valuation.get valuation a.var)) guard

(* Flat form: the atoms as parallel arrays over slot indices, evaluated
   with plain loops so the executor's hot path allocates nothing. *)
type flat = { slots : int array; cmps : cmp array; bounds : float array }

let flatten slot_of guard =
  let atoms = Array.of_list guard in
  {
    slots = Array.map (fun a -> slot_of a.var) atoms;
    cmps = Array.map (fun a -> a.cmp) atoms;
    bounds = Array.map (fun a -> a.bound) atoms;
  }

let flat_holds f values =
  let n = Array.length f.slots in
  let k = ref 0 in
  while
    !k < n
    && cmp_holds f.cmps.(!k) ~bound:f.bounds.(!k) values.(f.slots.(!k))
  do
    incr k
  done;
  !k = n

let flat_holds_between f ~from ~target alpha =
  let n = Array.length f.slots in
  let k = ref 0 in
  while
    !k < n
    &&
    let j = f.slots.(!k) in
    cmp_holds f.cmps.(!k) ~bound:f.bounds.(!k)
      (from.(j) +. (alpha *. (target.(j) -. from.(j))))
  do
    incr k
  done;
  !k = n

let vars guard =
  List.fold_left (fun acc a -> Var.Set.add a.var acc) Var.Set.empty guard

(** [bounds guard var] is the interval [(lo, hi)] the conjunction implies
    for [var] ([None] = unbounded on that side). Strictness is dropped:
    the executor's [eps] slack blurs strict/non-strict anyway, so static
    analyses treat [x < c] and [x <= c] as the same half-space. *)
let bounds guard var =
  List.fold_left
    (fun (lo, hi) a ->
      if not (Var.equal a.var var) then (lo, hi)
      else
        let raise_lo lo' =
          match lo with None -> Some lo' | Some l -> Some (Float.max l lo')
        in
        let lower_hi hi' =
          match hi with None -> Some hi' | Some h -> Some (Float.min h hi')
        in
        match a.cmp with
        | Gt | Ge -> (raise_lo a.bound, hi)
        | Lt | Le -> (lo, lower_hi a.bound)
        | Eq -> (raise_lo a.bound, lower_hi a.bound))
    (None, None) guard

(** Is the conjunction of [a] and [b] satisfiable per-variable? Sound for
    emptiness: [false] means some variable's implied interval is empty
    (beyond the [eps] slack), hence no valuation satisfies both. [true]
    only means no single-variable contradiction was found. *)
let compatible a b =
  let joint = a @ b in
  Var.Set.for_all
    (fun v ->
      match bounds joint v with
      | Some lo, Some hi -> lo <= hi +. eps
      | _ -> true)
    (vars joint)

(** [time_to_satisfy atom ~value ~rate] is the least [d >= 0] such that the
    atom holds after the variable evolves linearly for time [d] from
    [value] at slope [rate]; [None] if it never will. *)
let time_to_satisfy atom ~value ~rate =
  if atom_holds atom value then Some 0.0
  else
    let toward target =
      (* strictly on the wrong side; does linear motion reach [target]? *)
      let gap = target -. value in
      if Float.abs rate < eps then None
      else
        let d = gap /. rate in
        if d >= 0.0 then Some d else None
    in
    match atom.cmp with
    | Lt | Le -> toward atom.bound (* value > bound: need rate < 0 *)
    | Gt | Ge -> toward atom.bound (* value < bound: need rate > 0 *)
    | Eq -> toward atom.bound

(** [time_to_violate atom ~value ~rate] is the least [d >= 0] such that the
    atom stops holding; [None] if it holds forever (or never held). *)
let time_to_violate atom ~value ~rate =
  if not (atom_holds atom value) then Some 0.0
  else
    let escape target =
      let gap = target -. value in
      if Float.abs rate < eps then None
      else
        let d = gap /. rate in
        if d >= 0.0 then Some d else None
    in
    match atom.cmp with
    | Lt | Le -> if rate > 0.0 then escape atom.bound else None
    | Gt | Ge -> if rate < 0.0 then escape atom.bound else None
    | Eq -> if Float.abs rate < eps then None else Some 0.0

(* {2 Step prediction}

   The executor advances a constant-rate variable by repeated float
   additions [x +. delta], one per step. [flip_steps] bounds from below
   the first addition [n >= 1] that can change an atom's truth, so the
   executor may skip the steps before it.

   Proof sketch. Rounding is monotone, so the computed sequence never
   moves against [delta]: motion away from the atom's boundary (or
   [delta = 0]) never changes its truth. Toward the boundary, each
   addition rounds with relative error at most u = 2^-53, so after
   [n <= 2^30] additions the computed value is within
   [E_n <= 1.0000001 * n * u * (|value| + n * |delta|)] of the exact
   [value + n * delta]. The boundary is the float [bound ± eps] that
   {!cmp_holds} compares against (Eq: within 2u (|bound| + eps) of it,
   as [|x - bound|] is rounded). [err] below is 8x those terms plus the
   rounding of [gap] and of the quotient, so every addition before
   [floor ((gap - err) / |delta|)] stays strictly on the current side.
   Predictions stop at 2^30 additions; the executor then predicts
   again. *)

let max_flip_steps = 1 lsl 30

let[@inline] flip_steps cmp ~bound ~value ~delta ~holds =
  if not (Float.is_finite value && Float.is_finite delta) then 1
  else
    (* the boundary the motion heads for, or nan when it heads away *)
    let target =
      match cmp with
      | Lt | Le ->
          if (holds && delta > 0.0) || ((not holds) && delta < 0.0) then
            bound +. eps
          else nan
      | Gt | Ge ->
          if (holds && delta < 0.0) || ((not holds) && delta > 0.0) then
            bound -. eps
          else nan
      | Eq when holds ->
          if delta > 0.0 then bound +. eps
          else if delta < 0.0 then bound -. eps
          else nan
      | Eq ->
          if value < bound && delta > 0.0 then bound -. eps
          else if value > bound && delta < 0.0 then bound +. eps
          else nan
    in
    if Float.is_nan target then max_int
    else
      let step = Float.abs delta in
      let gap = Float.abs (target -. value) in
      let n = Float.min (gap /. step) (Float.of_int max_flip_steps) in
      let err =
        (n +. 8.0) *. 0x1p-50
        *. (Float.abs value +. (n *. step) +. Float.abs bound +. eps)
      in
      let q = (gap -. err) /. step in
      if not (q >= 1.0) then 1
      else if q >= Float.of_int max_flip_steps then max_flip_steps
      else Float.to_int q

let steps_to_flip cmp ~bound ~value ~delta =
  flip_steps cmp ~bound ~value ~delta ~holds:(cmp_holds cmp ~bound value)

(* First addition at which atom [k] may have truth [want]: 1 when it
   already has it. *)
let[@inline] atom_steps f values deltas k ~want =
  let j = f.slots.(k) in
  let cmp = f.cmps.(k) and bound = f.bounds.(k) and value = values.(j) in
  let holds = cmp_holds cmp ~bound value in
  if holds = want then 1
  else flip_steps cmp ~bound ~value ~delta:deltas.(j) ~holds

let flat_steps_to_violate f values deltas =
  let n = ref max_int in
  for k = 0 to Array.length f.slots - 1 do
    n := Int.min !n (atom_steps f values deltas k ~want:false)
  done;
  !n

let flat_steps_to_satisfy f values deltas =
  let n = ref 1 in
  for k = 0 to Array.length f.slots - 1 do
    n := Int.max !n (atom_steps f values deltas k ~want:true)
  done;
  !n

(** Earliest time a conjunction is violated under per-variable constant
    rates (max of per-atom satisfaction is not needed for invariants; the
    invariant fails as soon as any atom fails). *)
let invariant_horizon guard valuation rate_of =
  List.fold_left
    (fun acc a ->
      let value = Valuation.get valuation a.var in
      match time_to_violate a ~value ~rate:(rate_of a.var) with
      | None -> acc
      | Some d -> ( match acc with None -> Some d | Some d' -> Some (Float.min d d'))
    )
    None guard

let pp_cmp ppf = function
  | Lt -> Fmt.string ppf "<"
  | Le -> Fmt.string ppf "<="
  | Gt -> Fmt.string ppf ">"
  | Ge -> Fmt.string ppf ">="
  | Eq -> Fmt.string ppf "="

let pp_atom ppf a = Fmt.pf ppf "%s %a %g" a.var pp_cmp a.cmp a.bound

let pp ppf = function
  | [] -> Fmt.string ppf "true"
  | atoms -> Fmt.list ~sep:(Fmt.any " /\\ ") pp_atom ppf atoms
