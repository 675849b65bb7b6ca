(** Registry of all engines under comparison. *)

let recstep : Engine_intf.engine = (module Recstep_engine)
let souffle_like : Engine_intf.engine = (module Souffle_like)
let bigdatalog_like : Engine_intf.engine = (module Bigdatalog_like)
let distributed_bigdatalog = Bigdatalog_like.distributed
let graspan_like : Engine_intf.engine = (module Graspan_like)
let bddbddb_like : Engine_intf.engine = (module Bddbddb_like)

let all =
  [
    recstep;
    souffle_like;
    bigdatalog_like;
    distributed_bigdatalog;
    graspan_like;
    bddbddb_like;
  ]

let name (module E : Engine_intf.S) = E.name

let by_name n =
  List.find_opt (fun (module E : Engine_intf.S) -> E.name = n) all
