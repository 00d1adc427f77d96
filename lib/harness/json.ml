type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let is_container = function List _ | Obj _ -> true | _ -> false

let rec write b indent = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (if Float.is_finite f then Printf.sprintf "%.6f" f else "null")
  | String s -> escape b s
  | List vs -> container b indent '[' ']' (List.map (fun v -> (None, v)) vs)
  | Obj kvs -> container b indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)

(* One element per line when every element is itself a container. *)
and container b indent opening closing items =
  let broken = items <> [] && List.for_all (fun (_, v) -> is_container v) items in
  let inner = if broken then indent ^ "  " else indent in
  Buffer.add_char b opening;
  List.iteri
    (fun i (key, v) ->
      if broken then Buffer.add_string b ((if i = 0 then "\n" else ",\n") ^ inner)
      else if i > 0 then Buffer.add_string b ", ";
      Option.iter (fun k -> escape b k; Buffer.add_string b ": ") key;
      write b inner v)
    items;
  if broken then Buffer.add_string b ("\n" ^ indent);
  Buffer.add_char b closing

let to_string v =
  let b = Buffer.create 1024 in
  write b "" v;
  Buffer.contents b

let to_file path v =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string v ^ "\n"))

exception Parse_error of string

(* Recursive descent; [pos] is the next unread byte. *)
let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "offset %d: %s" !pos what)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () = if String.contains " \t\n\r" (peek ()) then (incr pos; ws ()) in
  let eat c = ws (); if peek () <> c then fail (Printf.sprintf "expected '%c'" c); incr pos in
  let span ok =
    let start = !pos in
    while !pos < n && ok s.[!pos] do incr pos done;
    String.sub s start (!pos - start)
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else begin
        (if c <> '\\' then Buffer.add_char b c
         else
           let e = peek () in
           incr pos;
           match e with
           | '"' | '\\' | '/' -> Buffer.add_char b e
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' -> (
               match int_of_string_opt ("0x" ^ String.sub s !pos (min 4 (n - !pos))) with
               | Some cp when !pos + 4 <= n && Uchar.is_valid cp ->
                   Buffer.add_utf_8_uchar b (Uchar.of_int cp);
                   pos := !pos + 4
               | _ -> fail "bad \\u escape")
           | _ -> fail "bad escape");
        go ()
      end
    in
    go ()
  in
  let number () =
    let text = span (String.contains "+-.eE0123456789") in
    match (int_of_string_opt text, float_of_string_opt text) with
    | Some i, _ -> Int i
    | None, Some f -> Float f
    | None, None -> fail "bad number"
  in
  let elements close item =
    ws ();
    if peek () = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if peek () = ',' then (incr pos; more acc) else (eat close; List.rev acc)
      in
      more []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> incr pos; Obj (elements '}' (fun () -> let k = str () in eat ':'; (k, value ())))
    | '[' -> incr pos; List (elements ']' value)
    | '"' -> String (str ())
    | '-' | '0' .. '9' -> number ()
    | _ -> (
        match span (fun c -> c >= 'a' && c <= 'z') with
        | "true" -> Bool true
        | "false" -> Bool false
        | "null" -> Null
        | _ -> fail "expected a value")
  in
  let v = value () in
  ws ();
  if !pos < n then fail "trailing characters";
  v

let of_file path = of_string (In_channel.with_open_bin path In_channel.input_all)

exception Type_error of string

let kind = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let expected what v = raise (Type_error (Printf.sprintf "expected %s, got %s" what (kind v)))

let member k = function
  | Obj kvs -> List.fold_left (fun found (k', v) -> if k = k' then Some v else found) None kvs
  | v -> expected "an object" v

let to_int = function Int i -> i | v -> expected "an int" v
let to_bool = function Bool x -> x | v -> expected "a bool" v
let to_str = function String x -> x | v -> expected "a string" v
let to_list = function List vs -> vs | v -> expected "an array" v
let to_assoc = function Obj kvs -> kvs | v -> expected "an object" v

let to_number = function
  | Int i -> float_of_int i
  | Float f when Float.is_finite f -> f
  | v -> expected "a finite number" v
