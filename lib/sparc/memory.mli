(** Sparse byte-addressed 32-bit memory, big-endian (SPARC byte order).

    This is the off-core main memory behind the bus: both the ISS and
    the RTL system read and write through it.  It is not a fault-
    injection target (faults live in the core and the caches). *)

type t

exception Misaligned of int
(** Raised when a word access is not 4-byte aligned or a halfword
    access is not 2-byte aligned. *)

val create : unit -> t
(** An empty memory; unwritten locations read as zero. *)

val copy : t -> t
(** Deep copy, so a faulty run cannot disturb the golden image. *)

val blit : src:t -> t -> unit
(** [blit ~src dst] makes [dst]'s image equal to [src]'s, reusing the
    pages [dst] already has: a {!copy} into existing storage. *)

val equal : t -> t -> bool
(** Word-for-word equality of the stored images (an all-zero page
    equals an absent one).  Tests compare the ISS and RTL images with
    it, and a transplanted lane's image with a scalar run's. *)

val load_word : t -> int -> int
val store_word : t -> int -> int -> unit

val load_byte : t -> int -> int
(** Unsigned byte. *)

val store_byte : t -> int -> int -> unit

val load_half : t -> int -> int
(** Unsigned halfword; checks 2-byte alignment. *)

val store_half : t -> int -> int -> unit

val blit_words : t -> int -> int array -> unit
(** [blit_words mem base words] stores [words] at consecutive word
    addresses starting at [base]. *)

val iter_nonzero : t -> (int -> int -> unit) -> unit
(** [iter_nonzero mem f] calls [f word_addr value] for every word that
    was ever written (in unspecified order); used to diff final
    memory images. *)
