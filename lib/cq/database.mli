(** Database instances: finite relational structures.

    A database maps relation symbols to {!Bagcqc_relation.Relation}s.  The
    constructions the paper performs on databases are provided here:
    canonical databases of queries (Chandra–Merlin), and the induced
    instance [Π_Q₁(P)] of a V-relation (Eq. 4), optionally with the
    value annotation [c ↦ ("X", c)] used in the proof of Theorem 4.4. *)

open Bagcqc_relation

type t

val empty : t
val add_relation : string -> Relation.t -> t -> t
(** Replaces any previous relation under that name. *)

val add_row : string -> Value.t array -> t -> t
(** Adds to the named relation, creating it if absent.
    @raise Invalid_argument on arity mismatch with existing rows. *)

val relation : t -> string -> arity:int -> Relation.t
(** The named relation, or an empty one of the given arity. *)

val relations : t -> (string * Relation.t) list
val total_rows : t -> int

val of_int_rows : (string * int list list) list -> t

val canonical : Query.t -> t
(** The canonical database of a query: one distinct constant per variable
    (the frozen query).  Used both for set-semantics containment and for
    counting [hom(Q₂, Q₁)] between queries. *)

val of_vrelation : ?annotate:bool -> Query.t -> Relation.t -> t
(** [of_vrelation q p] is [Π_Q(P)] from Eq. 4: for every atom [A] of [q],
    the generalized projection [Π_{vars(A)}(P)] is unioned into [rel(A)].
    [~annotate:true] tags every value with its column's variable name
    ([c ↦ Tag(var, c)]), the trick that makes the proof of Theorem 4.4
    work (see its footnote 7).  Each atom's projection is tagged after
    projecting ({!project_annotated}), so the annotated copy of [P]
    itself is never built.
    @raise Invalid_argument if [Relation.arity p <> Query.nvars q]. *)

val project_annotated : Query.t -> int array -> Relation.t -> Relation.t
(** [project_annotated q cols p] is [Relation.project cols] of [p] with
    every value tagged by its source variable: column [j] of the result
    holds [Tag (var_name q cols.(j), c)].  Tagging is injective on each
    column, so this equals projecting the fully annotated [P]. *)

val pp : Format.formatter -> t -> unit
