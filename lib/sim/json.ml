type t =
  | Bool of bool
  | Int of int
  | Int64 of int64
  | Float of float
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Compact of t

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_string f =
  if Float.is_nan f then "0"
  else if f = Float.infinity then "1e308"
  else if f = Float.neg_infinity then "-1e308"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let add_string b s =
  Buffer.add_char b '"';
  Buffer.add_string b (escape s);
  Buffer.add_char b '"'

(* [items] between [openc] and [closec], [sep] between neighbours. *)
let members b ~openc ~closec ~sep emit items =
  Buffer.add_string b openc;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      emit x)
    items;
  Buffer.add_string b closec

let rec add_compact b = function
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Int64 n -> Buffer.add_string b (Int64.to_string n)
  | Float f -> Buffer.add_string b (float_string f)
  | Fixed (d, f) -> Buffer.add_string b (Printf.sprintf "%.*f" d f)
  | String s -> add_string b s
  | Compact v -> add_compact b v
  | List l -> members b ~openc:"[" ~closec:"]" ~sep:"," (add_compact b) l
  | Obj m ->
      members b ~openc:"{" ~closec:"}" ~sep:","
        (fun (k, v) ->
          add_string b k;
          Buffer.add_char b ':';
          add_compact b v)
        m

let compact v =
  let b = Buffer.create 256 in
  add_compact b v;
  Buffer.contents b

let nested = function List _ | Obj _ -> true | _ -> false

let pretty ?(indent = 2) v =
  let b = Buffer.create 4096 in
  let line depth = "\n" ^ String.make (depth * indent) ' ' in
  let rec add ~depth ~top v =
    let member (k, v) =
      add_string b k;
      Buffer.add_string b ": ";
      add ~depth:(depth + 1) ~top:false v
    in
    (* One item per line, closing bracket back at this depth. *)
    let broken openc closec emit items =
      members b ~openc ~closec:(line depth ^ closec) ~sep:","
        (fun x ->
          Buffer.add_string b (line (depth + 1));
          emit x)
        items
    in
    match v with
    | List l -> broken "[" "]" (add ~depth:(depth + 1) ~top:false) l
    | Obj m when top || List.exists (fun (_, v) -> nested v) m ->
        broken "{" "}" member m
    | Obj [] -> Buffer.add_string b "{}"
    | Obj m -> members b ~openc:"{ " ~closec:" }" ~sep:", " member m
    | v -> add_compact b v
  in
  add ~depth:0 ~top:true v;
  Buffer.add_char b '\n';
  Buffer.contents b
