(* Output checks: bit-identical value comparison (floats by their bits),
   result digests, and the naive-oracle comparison on a table prefix. *)

open Holistic_storage
module Sql = Holistic_sql.Sql
module Parser = Holistic_sql.Parser

let value_equal (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let column_equal_values c (vals : Value.t array) =
  Column.length c = Array.length vals
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if !ok && not (value_equal (Column.get c i) v) then ok := false) vals;
  !ok

let column_equal a b = column_equal_values a (Array.init (Column.length b) (Column.get b))

let add_value buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char buf 'N'
  | Value.Bool b -> Buffer.add_char buf (if b then 'T' else 'F')
  | Value.Int i -> Buffer.add_char buf 'I'; Buffer.add_int64_le buf (Int64.of_int i)
  | Value.Float f -> Buffer.add_char buf 'R'; Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Date d -> Buffer.add_char buf 'D'; Buffer.add_int64_le buf (Int64.of_int d)
  | Value.String s -> Buffer.add_char buf 'S'; Buffer.add_string buf s; Buffer.add_char buf '\000'
  | Value.Interval { Value.months; days } ->
      Buffer.add_char buf 'V';
      Buffer.add_int64_le buf (Int64.of_int months);
      Buffer.add_int64_le buf (Int64.of_int days)

(* Digest of the named columns of a result, every value by its bits. *)
let digest table names =
  let buf = Buffer.create (16 * Table.nrows table) in
  List.iter
    (fun name ->
      let c = Table.column table name in
      Buffer.add_string buf name;
      for i = 0 to Column.length c - 1 do
        add_value buf (Column.get c i)
      done)
    names;
  Digest.string (Buffer.contents buf)

let prefix table k = Table.gather table (Array.init (min k (Table.nrows table)) Fun.id)

(* [Sql.query] over the first [rows] rows of its table against the naive
   oracle [Reference.run] over the same rows. *)
let against_reference ~pool ~tables ~table_name ~rows sql =
  let small = prefix (List.assoc table_name tables) rows in
  let got = Sql.query ~pool ~tables:[ (table_name, small) ] sql in
  let clauses, _ = Lower.clauses small (Parser.parse sql) in
  let expected = Holistic_window.Reference.run small clauses in
  List.for_all (fun (name, vals) -> column_equal_values (Table.column got name) vals) expected
