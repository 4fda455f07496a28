module J = Pte_util.Json

type value = { value : float; unit_ : string }

type results = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * value) list;
  checks : (string * bool) list;
  notes : (string * string) list;
}

let num_i i = J.Num (float_of_int i)

let metrics_json ms =
  J.Obj
    (List.map
       (fun (k, v) -> (k, J.Obj [ ("value", J.Num v.value); ("unit", J.Str v.unit_) ]))
       ms)

let line r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", num_i r.attempted);
      ("failed", num_i r.failed);
      ("metrics", metrics_json r.metrics);
    ]

let to_json r =
  match line r with
  | J.Obj fields ->
      J.Obj
        ([
           ("workload", J.Str r.workload);
           ("seed", num_i r.seed);
           ("seconds", num_i r.seconds);
           ("trace", J.Bool r.trace);
         ]
        @ fields
        @ [
            ("checks", J.Obj (List.map (fun (k, ok) -> (k, J.Bool ok)) r.checks));
            ("notes", J.Obj (List.map (fun (k, s) -> (k, J.Str s)) r.notes));
          ])
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* decoding helpers                                                   *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field k j =
  match J.member k j with Some v -> Ok v | None -> Error ("missing key " ^ k)

let get conv what k j =
  let* v = field k j in
  match conv v with Some x -> Ok x | None -> Error (Fmt.str "%s: expected %s" k what)

let str = get J.to_str "a string"
let int = get J.to_int "an integer"
let float = get J.to_float "a number"
let bool = get (function J.Bool b -> Some b | _ -> None) "a boolean"

let obj k j =
  let* v = field k j in
  match v with J.Obj kvs -> Ok kvs | _ -> Error (k ^ ": expected an object")

let map_result f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let of_json j =
  let* workload = str "workload" j in
  let* seed = int "seed" j in
  let* seconds = int "seconds" j in
  let* trace = bool "trace" j in
  let* correct = bool "correct" j in
  let* attempted = int "attempted" j in
  let* failed = int "failed" j in
  let* ms = obj "metrics" j in
  let* metrics =
    map_result
      (fun (k, v) ->
        let* value = float "value" v in
        let* unit_ = str "unit" v in
        Ok (k, { value; unit_ }))
      ms
  in
  let* cs = obj "checks" j in
  let* checks =
    map_result
      (fun (k, v) ->
        match v with J.Bool b -> Ok (k, b) | _ -> Error (k ^ ": expected a boolean"))
      cs
  in
  let* ns = obj "notes" j in
  let* notes =
    map_result
      (fun (k, v) ->
        match J.to_str v with Some s -> Ok (k, s) | None -> Error (k ^ ": expected a string"))
      ns
  in
  Ok { workload; seed; seconds; trace; correct; attempted; failed; metrics; checks; notes }

let file rs = "[\n" ^ String.concat ",\n" (List.map (fun r -> J.to_string (to_json r)) rs) ^ "\n]\n"
