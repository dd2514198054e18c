(* Percentiles and the JSON the benchmark prints. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an unsorted sample; nan when empty. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let median a = pct a 0.5

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

type json = Num of float | Str of string | Bool of bool | Obj of (string * json) list

let rec to_string = function
  | Num v -> num v
  | Str s -> str s
  | Bool b -> string_of_bool b
  | Obj kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ to_string v) kvs)
      ^ "}"

let metric (name, value, unit) =
  (name, Obj [ ("value", Num value); ("unit", Str unit) ])
