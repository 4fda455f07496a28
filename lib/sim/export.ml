(** Trace export: CSV for sampled time series (figure-style data) and
    JSON-lines for full event logs, so trial results can be plotted or
    diffed outside OCaml. *)

open Pte_hybrid
module Json = Pte_util.Json

let json_of_event = function
  | Trace.Enter_location { automaton; location } ->
      Printf.sprintf {|"kind":"enter","automaton":"%s","location":"%s"|}
        (Json.escape automaton) (Json.escape location)
  | Trace.Transition { automaton; src; dst; label; forced } ->
      Printf.sprintf
        {|"kind":"transition","automaton":"%s","src":"%s","dst":"%s","label":"%s","forced":%b|}
        (Json.escape automaton) (Json.escape src) (Json.escape dst)
        (Json.escape
           (match label with None -> "" | Some l -> Fmt.str "%a" Label.pp l))
        forced
  | Trace.Message_sent { sender; root } ->
      Printf.sprintf {|"kind":"sent","sender":"%s","root":"%s"|}
        (Json.escape sender) (Json.escape root)
  | Trace.Message_delivered { receiver; root; consumed } ->
      Printf.sprintf
        {|"kind":"delivered","receiver":"%s","root":"%s","consumed":%b|}
        (Json.escape receiver) (Json.escape root) consumed
  | Trace.Message_lost { receiver; root } ->
      Printf.sprintf {|"kind":"lost","receiver":"%s","root":"%s"|}
        (Json.escape receiver) (Json.escape root)
  | Trace.Sample { automaton; var; value } ->
      Printf.sprintf {|"kind":"sample","automaton":"%s","var":"%s","value":%g|}
        (Json.escape automaton) (Json.escape var) value
  | Trace.Note s -> Printf.sprintf {|"kind":"note","text":"%s"|} (Json.escape s)

(** One JSON object per line: [{"time":..., "kind":..., ...}]. *)
let to_jsonl trace =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun ({ Trace.time; event } : Trace.entry) ->
      Buffer.add_string buffer
        (Printf.sprintf "{\"time\":%.6f,%s}\n" time (json_of_event event)))
    trace;
  Buffer.contents buffer

(** CSV of the sampled variables: columns [time,automaton.var,...], one
    row per sample instant (samples taken at the same executor instant
    share a row; missing cells are empty). *)
let samples_to_csv trace =
  let columns = ref [] in
  let column automaton var =
    let name = automaton ^ "." ^ var in
    if not (List.mem name !columns) then columns := !columns @ [ name ];
    name
  in
  let rows : (float * (string * float) list) list ref = ref [] in
  List.iter
    (fun ({ Trace.time; event } : Trace.entry) ->
      match event with
      | Trace.Sample { automaton; var; value } -> (
          let name = column automaton var in
          match !rows with
          | (t, cells) :: rest when Float.abs (t -. time) < 1e-9 ->
              rows := (t, (name, value) :: cells) :: rest
          | _ -> rows := (time, [ (name, value) ]) :: !rows)
      | _ -> ())
    trace;
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer ("time," ^ String.concat "," !columns ^ "\n");
  List.iter
    (fun (time, cells) ->
      Buffer.add_string buffer (Printf.sprintf "%.6f" time);
      List.iter
        (fun name ->
          Buffer.add_char buffer ',';
          match List.assoc_opt name cells with
          | Some v -> Buffer.add_string buffer (Printf.sprintf "%g" v)
          | None -> ())
        !columns;
      Buffer.add_char buffer '\n')
    (List.rev !rows);
  Buffer.contents buffer

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
