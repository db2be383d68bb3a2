(* Correctness checks. A failed check raises [Failed] with a message
   naming the workload, the layer and the invariant; the command prints
   it and exits non-zero without a result line. *)

exception Failed of string

let that ~workload ~layer ~invariant ok detail =
  if not ok then
    raise
      (Failed
         (Printf.sprintf "workload %s, layer %s: %s (%s)" workload layer
            invariant (detail ())))

let ints a b () = Printf.sprintf "%d vs %d" a b
