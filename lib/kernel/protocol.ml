module Key = Semper_ddl.Key

type error =
  | E_no_such_service
  | E_no_such_cap
  | E_no_such_vpe
  | E_no_such_session
  | E_denied
  | E_in_revocation
  | E_vpe_dead
  | E_busy
  | E_invalid
  | E_no_pe
  | E_timeout

let error_to_string = function
  | E_no_such_service -> "no such service"
  | E_no_such_cap -> "no such capability"
  | E_no_such_vpe -> "no such VPE"
  | E_no_such_session -> "no such session"
  | E_denied -> "denied"
  | E_in_revocation -> "capability in revocation"
  | E_vpe_dead -> "VPE dead"
  | E_busy -> "VPE busy"
  | E_invalid -> "invalid arguments"
  | E_no_pe -> "no free PE"
  | E_timeout -> "remote kernel unreachable (retries exhausted)"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

type selector = Semper_caps.Capspace.selector

type syscall =
  | Sys_create_vpe of { on_pe : int option }
  | Sys_create_srv of { name : string }
  | Sys_create_rgate of { ep : int; slots : int }
  | Sys_create_sgate of { rgate : selector; label : int }
  | Sys_alloc_mem of { size : int64; perms : Semper_caps.Perms.t }
  | Sys_derive_mem of { sel : selector; offset : int64; size : int64; perms : Semper_caps.Perms.t }
  | Sys_open_session of { service : string }
  | Sys_obtain of { sess : selector; args : int list }
  | Sys_delegate of { sess : selector; sel : selector; args : int list }
  | Sys_obtain_from of { donor_vpe : int; donor_sel : selector }
  | Sys_delegate_to of { recv_vpe : int; sel : selector }
  | Sys_revoke of { sel : selector; own : bool }
  | Sys_activate of { sel : selector; ep : int }
  | Sys_exit

let syscall_names =
  [|
    "create_vpe"; "create_srv"; "create_rgate"; "create_sgate"; "alloc_mem"; "derive_mem";
    "open_session"; "obtain"; "delegate"; "obtain_from"; "delegate_to"; "revoke"; "activate"; "exit";
  |]

let syscall_tag = function
  | Sys_create_vpe _ -> 0
  | Sys_create_srv _ -> 1
  | Sys_create_rgate _ -> 2
  | Sys_create_sgate _ -> 3
  | Sys_alloc_mem _ -> 4
  | Sys_derive_mem _ -> 5
  | Sys_open_session _ -> 6
  | Sys_obtain _ -> 7
  | Sys_delegate _ -> 8
  | Sys_obtain_from _ -> 9
  | Sys_delegate_to _ -> 10
  | Sys_revoke _ -> 11
  | Sys_activate _ -> 12
  | Sys_exit -> 13

let syscall_name s = syscall_names.(syscall_tag s)

type reply =
  | R_ok
  | R_sel of selector
  | R_vpe of { vpe : int; sel : selector }
  | R_sess of { sel : selector; ident : int }
  | R_err of error

let pp_reply ppf = function
  | R_ok -> Format.pp_print_string ppf "ok"
  | R_sel s -> Format.fprintf ppf "sel(%d)" s
  | R_vpe { vpe; sel } -> Format.fprintf ppf "vpe(%d, sel=%d)" vpe sel
  | R_sess { sel; ident } -> Format.fprintf ppf "sess(sel=%d, ident=%d)" sel ident
  | R_err e -> Format.fprintf ppf "error(%s)" (error_to_string e)

type donor =
  | Via_session of { srv_key : Key.t; ident : int; args : int list }
  | Direct of { donor_vpe : int; donor_sel : selector }

type recv_ref =
  | Recv_vpe of int
  | Recv_service of { srv_key : Key.t; ident : int; args : int list }

type migrated_cap = {
  m_key : Key.t;
  m_kind : Semper_caps.Cap.kind;
  m_owner : int;
  m_parent : Key.t option;
  m_children : Key.t list;
}

type ikc =
  | Ik_obtain_req of {
      op : int;
      src_kernel : int;
      obj_reserved : int;
      client_pe : int;
      client_vpe : int;
      donor : donor;
    }
  | Ik_obtain_reply of { op : int; result : (Key.t * Semper_caps.Cap.kind * Key.t, error) result }
  | Ik_delegate_req of {
      op : int;
      src_kernel : int;
      parent_key : Key.t;
      kind : Semper_caps.Cap.kind;
      recv : recv_ref;
    }
  | Ik_delegate_reply of { op : int; result : (Key.t, error) result }
  | Ik_delegate_ack of { op : int; child_key : Key.t; commit : bool }
  | Ik_open_sess_req of {
      op : int;
      src_kernel : int;
      srv_key : Key.t;
      sess_key : Key.t;
      client_vpe : int;
    }
  | Ik_open_sess_reply of { op : int; result : (int, error) result }
  | Ik_revoke_req of { op : int; src_kernel : int; keys : Key.t list }
  | Ik_revoke_reply of { op : int; keys : Key.t list; cont : Key.t list }
      (* [cont]: marked-subtree roots the responder discovered on the
         requester's side; the requester folds them into its own revoke
         wave instead of receiving a separate Ik_revoke_req per child
         (batching mode; empty otherwise). *)
  | Ik_remove_child of { op : int; parent_key : Key.t; child_key : Key.t }
  | Ik_migrate_update of { op : int; src_kernel : int; pe : int; new_kernel : int }
  | Ik_migrate_ack of { op : int }
  | Ik_migrate_caps of { op : int; src_kernel : int; vpe : int; records : migrated_cap list }
  | Ik_srv_announce of { op : int; name : string; srv_key : Key.t; kernel : int }
  | Ik_fleet_state of {
      op : int;
      src_kernel : int;
      kernel : int;
      state : Semper_ddl.Membership.kernel_state;
    }
      (* Kernel lifecycle transition (join/drain/retire), broadcast to
         every peer and acked like a migrate update. *)
  | Ik_part_update of { op : int; src_kernel : int; pes : int list; new_kernel : int }
      (* Bulk membership flip for a whole partition set: the new owner
         marks every PE mid-handoff, other replicas reassign the set
         atomically. *)
  | Ik_part_records of {
      op : int;
      src_kernel : int;
      pes : int list;
      vpes : int list;
      records : migrated_cap list;
    }
      (* Framed record wave carrying every capability record of the
         partitions in [pes] plus the VPEs living there; sized like an
         [Ik_batch] frame (header + one slot per record). *)
  | Ik_shutdown of { src_kernel : int }
  | Ik_batch of { src_kernel : int; msgs : ikc list }
      (* Framed multi-message: every [Ik_*] queued for the same peer
         within one DTU slot window travels as one fabric transfer
         consuming one credit (batching mode only). *)

let ikc_names =
  [|
    "obtain_req"; "obtain_reply"; "delegate_req"; "delegate_reply"; "delegate_ack"; "open_sess_req";
    "open_sess_reply"; "revoke_req"; "revoke_reply"; "remove_child"; "migrate_update"; "migrate_ack";
    "migrate_caps"; "srv_announce"; "fleet_state"; "part_update"; "part_records"; "shutdown"; "batch";
  |]

let ikc_tag = function
  | Ik_obtain_req _ -> 0
  | Ik_obtain_reply _ -> 1
  | Ik_delegate_req _ -> 2
  | Ik_delegate_reply _ -> 3
  | Ik_delegate_ack _ -> 4
  | Ik_open_sess_req _ -> 5
  | Ik_open_sess_reply _ -> 6
  | Ik_revoke_req _ -> 7
  | Ik_revoke_reply _ -> 8
  | Ik_remove_child _ -> 9
  | Ik_migrate_update _ -> 10
  | Ik_migrate_ack _ -> 11
  | Ik_migrate_caps _ -> 12
  | Ik_srv_announce _ -> 13
  | Ik_fleet_state _ -> 14
  | Ik_part_update _ -> 15
  | Ik_part_records _ -> 16
  | Ik_shutdown _ -> 17
  | Ik_batch _ -> 18

let ikc_name m = ikc_names.(ikc_tag m)

let ikc_op = function
  | Ik_obtain_req { op; _ }
  | Ik_obtain_reply { op; _ }
  | Ik_delegate_req { op; _ }
  | Ik_delegate_reply { op; _ }
  | Ik_delegate_ack { op; _ }
  | Ik_open_sess_req { op; _ }
  | Ik_open_sess_reply { op; _ }
  | Ik_revoke_req { op; _ }
  | Ik_revoke_reply { op; _ }
  | Ik_migrate_update { op; _ }
  | Ik_migrate_ack { op }
  | Ik_migrate_caps { op; _ }
  | Ik_remove_child { op; _ }
  | Ik_srv_announce { op; _ }
  | Ik_fleet_state { op; _ }
  | Ik_part_update { op; _ }
  | Ik_part_records { op; _ } ->
    op
  | Ik_shutdown _ | Ik_batch _ -> -1

type service_request =
  | Srq_open_session of { client_vpe : int }
  | Srq_obtain of { ident : int; args : int list }
  | Srq_delegate of { ident : int; args : int list; kind : Semper_caps.Cap.kind }

type service_response =
  | Srs_session of { ident : int }
  | Srs_grant of { parent : Key.t; kind : Semper_caps.Cap.kind }
  | Srs_accept
  | Srs_reject of error
