(** Registry of all engines under comparison (paper §6.1). *)

val recstep : Engine_intf.engine
(** The paper's system (the interpreter behind the common interface). *)

val souffle_like : Engine_intf.engine

val bigdatalog_like : Engine_intf.engine

val distributed_bigdatalog : Engine_intf.engine
(** The paper's 120-core / 450 GB reference cluster configuration. *)

val graspan_like : Engine_intf.engine

val bddbddb_like : Engine_intf.engine

val all : Engine_intf.engine list
(** All six, RecStep first. *)

val name : Engine_intf.engine -> string

val by_name : string -> Engine_intf.engine option
