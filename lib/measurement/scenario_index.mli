(** Scenario-name resolution against a lab population, built once.

    A scenario needle (["reversed"], ["REV"], ["dup"] …) names the first
    ledger scenario with at least one domain whose lowercase name contains
    the lowercased needle; it resolves to the first population record of
    that scenario. [chaoscheck scenario] and chaind's [scenario] checks
    share this one definition. *)

val names : (string * Calibration.scenario) list
(** Every ledger scenario with a non-zero count, in ledger order, with its
    display name. *)

val match_name : string -> (string * Calibration.scenario) option
(** The first entry of {!names} whose lowercase name contains the
    lowercased needle (the empty needle matches the first entry). Needs no
    population. *)

type t

val create : Population.t -> t
(** One pass over the population, keeping the first record of each
    scenario. *)

val find : t -> string -> (string * Chaoschain_x509.Cert.t list) option
(** [(domain, served chain)] of the first population record of the
    scenario {!match_name} selects; [None] when no name matches or the
    matched scenario has no record. Allocates nothing and does not touch
    the population: its cost depends on the needle and the ledger only. *)
