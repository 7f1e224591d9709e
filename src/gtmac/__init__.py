"""gtmac: randomized group-testing detection of active users over a shared channel.

The package has four layers: :mod:`gtmac.scheme` (the elimination scheme
itself, node-level and fast-path), :mod:`gtmac.bounds` (closed-form slot and
channel-use budgets), :mod:`gtmac.channel` (sub-gaussian adder channel and the
repetition disjunction code), and :mod:`gtmac.harness` (Monte Carlo
experiments with CSV export).  The scheme and the channel meet at one call:
a disjunction oracle is any object whose ``decode_block(senders)`` returns
one bool per slot, so ``channel`` depends only on ``gtmac.bounds`` and the
range checks of ``gtmac._ranges``, not on ``scheme``.  ``gtmac.cli`` exposes all of it as the
``gtmac`` command.  The package re-exports nothing: import the layer you
use, for example ``from gtmac import bounds``.
"""

__version__ = "0.1.0"
