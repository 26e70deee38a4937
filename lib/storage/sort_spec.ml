type direction = Asc | Desc
type nulls_order = Nulls_default | Nulls_first | Nulls_last
type key = { expr : Expr.t; direction : direction; nulls : nulls_order }
type t = key list

let asc ?(nulls = Nulls_default) expr = { expr; direction = Asc; nulls }
let desc ?(nulls = Nulls_default) expr = { expr; direction = Desc; nulls }

let nulls_last_flag key =
  match key.nulls, key.direction with
  | Nulls_last, _ -> true
  | Nulls_first, _ -> false
  | Nulls_default, Asc -> true
  | Nulls_default, Desc -> false

let key_to_string key =
  Expr.to_string key.expr
  ^ (match key.direction with Asc -> "" | Desc -> " desc")
  ^ match key.nulls with
    | Nulls_default -> ""
    | Nulls_first -> " nulls first"
    | Nulls_last -> " nulls last"

let to_string spec = String.concat ", " (List.map key_to_string spec)

let key_comparator table key =
  let f = Expr.compile table key.expr in
  let nulls_last = nulls_last_flag key in
  let sign = match key.direction with Asc -> 1 | Desc -> -1 in
  fun i j ->
    let a = f i and b = f j in
    (* NULL placement is absolute (not flipped by DESC once resolved):
       compare non-nulls under the direction, place NULLs per flag. *)
    match Value.is_null a, Value.is_null b with
    | true, true -> 0
    | true, false -> if nulls_last then 1 else -1
    | false, true -> if nulls_last then -1 else 1
    | false, false -> sign * Value.compare_sql ~nulls_last:true a b

let comparator table spec =
  let compiled = List.map (key_comparator table) spec in
  fun i j ->
    let rec go = function
      | [] -> 0
      | f :: rest ->
          let c = f i j in
          if c <> 0 then c else go rest
    in
    go compiled

type fast_key = Int_key of int array * bool | Float_key of float array * bool

(* Both fast paths require the column to carry no NULLs, and on a NULL-free
   column every [nulls_order] is semantically identical — so an explicit
   NULLS LAST on ASC (or NULLS FIRST on DESC, or any other spelling) must
   not fall off the fast path. Only the column's data matters here. *)

let fast_key table spec =
  match spec with
  | [ { expr = Expr.Col name; direction; nulls = _ } ] -> begin
      match Table.column_opt table name with
      | Some c when Column.null_mask c = None -> begin
          let desc = direction = Desc in
          match Column.data c with
          | Column.Ints a | Column.Dates a -> Some (Int_key (a, desc))
          | Column.Floats a -> Some (Float_key (a, desc))
          | Column.Strings _ | Column.Bools _ -> None
        end
      | _ -> None
    end
  | _ -> None

(* The plain-column arm of [fast_comparator]: the keys [fast_key] matches
   compare their raw array.  [Float.compare] is what
   [Value.compare_non_null] does on two floats (NaN lowest and equal to
   itself, -0.0 = 0.0), and DESC swaps the arguments, which is the same
   sign as negating the result. *)
let plain_key_comparator table key =
  match fast_key table [ key ] with
  | Some (Int_key (a, desc)) ->
      Some (if desc then fun i j -> Int.compare a.(j) a.(i) else fun i j -> Int.compare a.(i) a.(j))
  | Some (Float_key (a, desc)) ->
      Some
        (if desc then fun i j -> Float.compare a.(j) a.(i)
         else fun i j -> Float.compare a.(i) a.(j))
  | None -> None

let fast_comparator table spec =
  let keys =
    List.map
      (fun key ->
        match plain_key_comparator table key with
        | Some cmp -> cmp
        | None -> key_comparator table key)
      spec
  in
  match keys with
  | [] -> fun _ _ -> 0
  | [ cmp ] -> cmp
  | keys ->
      let keys = Array.of_list keys in
      let nkeys = Array.length keys in
      fun i j ->
        let c = ref 0 and k = ref 0 in
        while !c = 0 && !k < nkeys do
          c := keys.(!k) i j;
          incr k
        done;
        !c

let single_int_key table spec =
  match spec with
  | [ { expr = Expr.Col name; direction = Asc; nulls = _ } ] -> begin
      match Table.column_opt table name with
      | Some c when Column.null_mask c = None -> begin
          match Column.data c with
          | Column.Ints a | Column.Dates a -> Some a
          | Column.Floats _ | Column.Strings _ | Column.Bools _ -> None
        end
      | _ -> None
    end
  | _ -> None
