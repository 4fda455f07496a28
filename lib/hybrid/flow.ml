(** Flow maps.

    The paper's flow map [f_v] gives a differential equation
    [~x' = f_v(~x)] per location (Section II-A, item 4). Two concrete
    forms cover the paper and its case study:

    - {!Rates}: constant-slope flows ([x' = c]). All clock variables of
      the design-pattern automata, and the ventilator cylinder height of
      Fig. 2, are of this form. Constant-rate flows admit exact
      boundary-crossing computation and an exact timed-automaton view for
      the model checker.
    - {!Ode}: a flat vector field evaluated numerically (the executor
      integrates with explicit Euler and boundary bisection). It declares
      the variables it reads and the ones it drives, so the executor
      compiles both to slot arrays and static analyses see them. Used
      for physical dynamics such as the patient's SpO2 level. *)

type t =
  | Rates of (Var.t * float) list
      (** Constant derivative per listed variable; unlisted variables have
          derivative 0. *)
  | Ode of {
      reads : Var.t list;
      writes : Var.t list;
      f : float -> float array -> float array -> unit;
          (** [f time x dx] fills [dx.(k)], the derivative of
              [writes.(k)], from [x.(i)], the value of [reads.(i)]. A
              pure function of [time] and [x]. *)
    }
      (** Unlisted variables have derivative 0. *)

(** All declared clocks advance at rate 1 and everything else is frozen. *)
let clocks vars = Rates (List.map (fun v -> (v, 1.0)) vars)

let frozen = Rates []

let derivatives flow ~time valuation =
  match flow with
  | Rates rates -> rates
  | Ode { reads; writes; f } ->
      let x = Array.of_list (List.map (Valuation.get valuation) reads) in
      let dx = Array.make (List.length writes) 0.0 in
      f time x dx;
      List.mapi (fun k var -> (var, dx.(k))) writes

let rate_of flow ~time valuation var =
  let rates = derivatives flow ~time valuation in
  match List.assoc_opt var rates with Some r -> r | None -> 0.0

let is_constant_rate = function Rates _ -> true | Ode _ -> false

(** Static view of the rate table: [Some rates] for a {!Rates} flow,
    [None] for an {!Ode}. *)
let constant_rates = function Rates rates -> Some rates | Ode _ -> None

(** The variables the flow reads: an ODE's [reads]; a constant-rate flow
    reads nothing. *)
let reads = function Rates _ -> [] | Ode { reads; _ } -> reads

(** The variables the flow drives (listed, whatever the rate). *)
let writes = function
  | Rates rates -> List.map fst rates
  | Ode { writes; _ } -> writes

(** [combine f g] evolves the (disjoint) variables of both flows
    simultaneously; used by elaboration, where the data state variables of
    the elaborated automaton keep their parent-location dynamics while the
    child automaton's variables follow the child flow. A combination with
    an ODE splits [x] and [dx] per call (it allocates; no shipped system
    elaborates an ODE location). *)
let combine f g =
  match (f, g) with
  | Rates a, Rates b -> Rates (a @ b)
  | _ ->
      let field = function
        | Rates rates ->
            let rates = Array.of_list (List.map snd rates) in
            (0, fun _ _ dx -> Array.blit rates 0 dx 0 (Array.length rates))
        | Ode { reads; f; _ } -> (List.length reads, f)
      in
      let nr, fa = field f and _, fb = field g in
      let nw = List.length (writes f) in
      Ode
        {
          reads = reads f @ reads g;
          writes = writes f @ writes g;
          f =
            (fun time x dx ->
              let dxa = Array.make nw 0.0 in
              let dxb = Array.make (Array.length dx - nw) 0.0 in
              fa time (Array.sub x 0 nr) dxa;
              fb time (Array.sub x nr (Array.length x - nr)) dxb;
              Array.blit dxa 0 dx 0 nw;
              Array.blit dxb 0 dx nw (Array.length dxb));
        }

let pp ppf = function
  | Rates [] -> Fmt.string ppf "frozen"
  | Rates rates ->
      Fmt.list ~sep:(Fmt.any ", ")
        (fun ppf (v, r) -> Fmt.pf ppf "%s'=%g" v r)
        ppf rates
  | Ode _ -> Fmt.string ppf "<ode>"
