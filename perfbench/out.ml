(* The benchmark's report: human-readable lines while a run progresses,
   then one JSON object as the last line of standard output. *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []

(* [emit name unit value ~note] records a reported metric and prints it
   with its unit; [note] carries sample counts or why a value is 0. *)
let emit ?(note = "") name unit_ value =
  metrics := { name; value; unit_ } :: !metrics;
  Printf.printf "metric %-34s %18.6f %-9s %s\n%!" name value unit_ note

(* Printed but not part of the JSON: a figure the workload's benchmark
   entry does not list. *)
let info ?(note = "") name unit_ value =
  Printf.printf "info   %-34s %18.6f %-9s %s\n%!" name value unit_ note

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let final ~correct ~attempted ~failed =
  let ms =
    List.rev_map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)
