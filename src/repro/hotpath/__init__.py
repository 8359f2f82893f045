"""The per-cycle hot path (DESIGN.md: hotpath layer).

The µcore ISS tick and the OoO core step live in
:mod:`repro.hotpath.ucore_kernel` and :mod:`repro.hotpath.ooo_kernel`
as tight functions over flat ``list[int]`` state, and
:mod:`repro.hotpath.decode` turns µcore programs into the flat form
the tick reads.  They are the only implementation of the two ticks:
:class:`~repro.ucore.core.MicroCore` and :class:`~repro.ooo.core.MainCore`
bind them once at construction.
"""
