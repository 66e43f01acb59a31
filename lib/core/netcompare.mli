(** Net-list consistency checking.

    "With this hierarchical net list available, it is now possible to
    check electrical construction rules or to check the net list
    against an input net list for consistency."  This module implements
    the second half: the designer supplies the intended connectivity
    (which devices' which ports sit on which named nets) and the
    checker verifies the extracted net list agrees — catching layouts
    that meet every geometric rule yet implement the wrong circuit.

    The expected net list uses a small text format, one terminal per
    line:

    {v
    # comment
    net <name>            -- start a net (partial: extra terminals ok)
    net <name> exact      -- start a net; unlisted terminals are errors
    <device-path> <port>  -- a terminal expected on the current net
    v}

    Device paths use the checker's dot notation ([0:inv.1:dep]). *)

type terminal_spec = { device : string; port : string }

type net_spec = {
  nname : string;
  terminals : terminal_spec list;
  closed : bool;  (** flag unlisted functional terminals on this net *)
}

type expected = { nets : net_spec list }

(** Parse the expected-net-list text format. *)
val parse : string -> (expected, string) result

(** Compare the extracted net list against [expected] — nets not named
    in [expected] are unconstrained — and report each mismatch (an
    expected net missing from the layout, a terminal on no net or on
    another net, a functional terminal an [exact] net does not list) as
    a violation (stage [Netlist_gen], rules [netcmp.*]). *)
val check : expected -> Netlist.Net.t -> Report.violation list
