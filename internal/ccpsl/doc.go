// Package ccpsl implements the Cache Coherence Protocol Specification
// Language, a small text format for defining protocols without writing Go.
// The paper's conclusion calls for "a formal specification language capable
// of describing both the protocol behavior and the processes implementing
// it" to automate verification; ccpsl is that extension: specs parse into
// the same fsm.Protocol values that drive the symbolic verifier, the
// enumerators and the simulator.
//
// A specification looks like:
//
//	protocol Illinois
//	characteristic sharing
//
//	states {
//	  Invalid          initial
//	  Valid-Exclusive  valid readable exclusive clean
//	  Shared           valid readable clean
//	  Dirty            valid readable exclusive owner
//	}
//
//	rule read-miss-dirty-owner {
//	  from Invalid on R when any-other Dirty
//	  next Shared
//	  observe Dirty -> Shared
//	  data from-cache Dirty writeback-supplier
//	}
//
//	rule write-hit-shared {
//	  from Shared on W
//	  next Dirty
//	  observe Shared -> Invalid, Valid-Exclusive -> Invalid, Dirty -> Invalid
//	  data keep store
//	}
//
// Grammar (statements are newline-terminated; '#' starts a comment):
//
//	spec           = "protocol" IDENT
//	                 [ "characteristic" ("null" | "sharing") ]
//	                 [ "ops" IDENT+ ]
//	                 "states" "{" stateDecl* "}"
//	                 rule*
//	stateDecl      = IDENT flag*           ; flags: initial valid readable
//	                                       ;        exclusive owner clean
//	rule           = "rule" IDENT "{" clause* "}"
//	clause         = "from" IDENT "on" IDENT [ "when" guard ]
//	               | "next" IDENT
//	               | "observe" IDENT "->" IDENT { "," IDENT "->" IDENT }
//	               | "data" source flag*
//	guard          = ("any-other" | "no-other") IDENT { "," IDENT }
//	source         = "none" | "keep" | "memory" | "from-cache" IDENT+
//	dataflag       = "store" | "write-through" | "update-sharers"
//	               | "writeback-supplier" | "writeback-self" | "drop"
//	IDENT          = (letter | "_") { letter | digit | "_" | "-" | "!" }
//	                                       ; a "-" before ">" ends it
//
// Parse compiles and validates a spec; Format renders an fsm.Protocol back
// into the language, and the two round-trip.
package ccpsl
