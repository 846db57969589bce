"""The run record: what a run measured, in memory and as a JSON trace.

This module alone knows the written format: every record's ``row`` and
``from_row``, the report's ``to_dict`` and ``from_dict``, the table layouts
(:class:`Table`) of :func:`write_table` and :func:`read_table`, the float64
codec :func:`write_vector` and :func:`read_vector`, and every schema check
a trace passes on loading.  A trace writes what a run measured and
decided, and nothing that follows from it: the :data:`CHAIN` fields are
written once, by the record or start block they repeat, and the
:data:`DERIVED` fields not at all, because loading replays them bit for
bit.  It writes three flat tables, joined by position, each one column
per field, entry i belonging to row i: ``records``, one row per iteration
record; ``calls``, one row per restoration call, row k record k's call and
the failing call of a ``RestorationFailure`` the last row, whose count
``trials`` says how many trials the call took; and ``trials``, the trials
of every call in order, each with its weight written as its doubling count
j, ``sigma = sigma_min * 2**j``.
Each point (``start.x``, every ``x_R`` and ``x_next``) is one string, the
base64 of its little-endian float64 bytes, which holds its bits exactly in
about half the characters of decimal text.  So is every float column of a
table, packed once over its rows: each record scalar, each field of
``y_R`` and each :class:`~bira.qp.SolveCertificate` field.  A nullable
column writes a null as the quiet NaN, and no other NaN, nor any
infinity, loads: :func:`read_table` tests each column once against the
rules of its :class:`Table`, and its refusal names the first offending
record (or ``failure info``) and field.  Counts and ledgers stay JSON, and
so do the numbers of the ``start`` block.  In memory each fact has one
type: a :class:`~bira.core.PrecisionLevel`, a
:class:`~bira.qp.SolveCertificate` or a :class:`RestorationOutcome`.
"""

import base64
import bisect
import contextlib
import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    FAILURE_KINDS,
    FLOAT_MAX,
    LEDGER_FIELDS,
    MU_INIT,
    RUN_STATUSES,
    THETA_0,
    AlgorithmParams,
    ContractError,
    InvariantError,
    PrecisionLevel,
    ProblemConstants,
    SchemaError,
    is_number,
    past_float_range,
    tangent_mu_start,
    type_name,
    update_penalty,
    valid_tolerance,
)
from .qp import SolveCertificate

TRACE_VERSION = 25

#: The largest magnitude whose square stays within the float range.
SQUARE_MAX = math.sqrt(FLOAT_MAX)


def check_fields(payload, fields, what):
    """Raise :class:`SchemaError` unless ``payload`` has exactly ``fields``."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{what} must be a JSON object")
    if set(payload) != set(fields):
        raise SchemaError(
            f"{what} fields differ from the schema:"
            f" missing {sorted(set(fields) - set(payload))},"
            f" unknown {sorted(set(payload) - set(fields))}"
        )


def check_numbers(payload, what, names=None, counts=(), finite=False):
    """Raise :class:`SchemaError` unless ``payload`` is a JSON object whose
    ``names`` fields (all by default) hold numbers, finite ones when
    ``finite`` is true; one in ``counts`` must be a nonnegative integer.
    For the objects of a trace that are not tables; a table's values are
    tested by :meth:`Table.check`."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{what} must be a JSON object")
    for name in payload if names is None else names:
        val = payload[name]
        if name in counts:
            check_count(val, f"{what} field {name!r}")
        elif is_number(val):
            if finite and not math.isfinite(val):
                raise SchemaError(f"{what} field {name!r} must not be"
                                  f" {val!r}")
        else:
            raise SchemaError(f"{what} field {name!r} must be a number,"
                              f" got {type_name(val)}")


def check_ledger(payload, what):
    """Raise :class:`SchemaError` unless ``payload`` counts every
    evaluation kind of :data:`~bira.core.LEDGER_FIELDS`, and only those."""
    check_fields(payload, LEDGER_FIELDS, what)
    check_numbers(payload, what, counts=LEDGER_FIELDS)


@functools.cache
def number_fields(cls):
    """``(names, optional, counts)`` of the fields of dataclass ``cls``
    annotated as numbers, for :func:`check_numbers` and the table layouts:
    the ``float | None`` fields are optional, the ``int`` fields counts."""
    types = {name: f.type for name, f in cls.__dataclass_fields__.items()}
    return (tuple(name for name, t in types.items()
                  if t in (int, float, float | None)),
            tuple(name for name, t in types.items() if t == float | None),
            tuple(name for name, t in types.items() if t is int))


def write_vector(x):
    """The written form of the point or float column ``x``: base64 (RFC
    4648) of its little-endian float64 bytes, read back by
    :func:`read_vector`."""
    return base64.b64encode(np.asarray(x, dtype="<f8").tobytes()).decode(
        "ascii")


def read_vector(text, what, length=None, finite=True):
    """The point or float column written by :func:`write_vector` as
    ``text``.

    :class:`SchemaError`, naming ``what``, unless ``text`` is a string of
    valid base64 holding whole float64 coordinates, all finite unless
    ``finite`` is false, and ``length`` of them when that is given."""
    if not isinstance(text, str):
        raise SchemaError(f"{what} must be a base64 string of float64 bytes,"
                          f" got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:
        raise SchemaError(f"{what} is not valid base64") from None
    if len(raw) % 8:
        raise SchemaError(f"{what} holds {len(raw)} bytes, not whole float64"
                          " coordinates")
    # astype copies: the array frombuffer returns is read-only
    x = np.frombuffer(raw, dtype="<f8").astype(float)
    if length is not None and len(x) != length:
        raise SchemaError(f"{what} must have {length} entries, got {len(x)}")
    if finite and not np.isfinite(x).all():
        raise SchemaError(f"{what} must be finite")
    return x


@contextlib.contextmanager
def _within(what):
    """Prefix ``what`` to a :class:`SchemaError` raised inside, so an error
    in a nested part of a trace names the part that holds it."""
    try:
        yield
    except SchemaError as exc:
        raise SchemaError(f"{what}: {exc}") from None


def is_count(val):
    """Whether ``val`` is a nonnegative integer that a float holds."""
    return type(val) is int and val >= 0 and not past_float_range(val)


def not_count(val):
    """Why :func:`is_count` refuses ``val``, for a refusal message."""
    shown = type_name(val) if past_float_range(val) else repr(val)
    return f"must be a nonnegative integer, got {shown}"


def check_count(val, what):
    """Raise :class:`SchemaError` unless :func:`is_count` holds."""
    if not is_count(val):
        raise SchemaError(f"{what} {not_count(val)}")


def _level(values, what):
    """A precision level from its written pair ``[gf, gh]``."""
    if not (isinstance(values, list) and len(values) == 2
            and all(map(is_number, values))):
        raise SchemaError(f"{what} must be a list of two numbers")
    try:
        return PrecisionLevel(*values)
    except ContractError as exc:
        raise SchemaError(f"{what}: {exc}") from None


class Table(NamedTuple):
    """The layout of a written table, and the one place the rules of its
    values live (:meth:`check`).

    ``columns`` are its columns in order, and ``row`` the name a refusal
    gives one of its rows.  ``nested`` maps a column to the layout of the
    table it is written as.  A column in ``packed`` holds floats, written
    as one :func:`write_vector` string.  Those must be finite, except in
    one in ``nullable``, which writes ``None`` as the quiet NaN; in one in
    ``nonnegative`` at least 0, and in one in ``squared``, which the audit
    squares, at most :data:`SQUARE_MAX` in magnitude.  Any other column is
    one JSON list, and one in ``counts`` holds nonnegative integers."""

    columns: tuple
    nested: dict = {}
    packed: tuple = ()
    nullable: tuple = ()
    nonnegative: tuple = ()
    squared: tuple = ()
    counts: tuple = ()
    row: str = ""

    def check(self, name, values, record):
        """Raise :class:`SchemaError` at the first entry of the column
        ``name``, read as ``values`` (an array if packed, else a list),
        that the layout forbids, naming the record ``record(i)`` of its
        row i, when given, the rows' name ``row`` and the field."""
        if name in self.counts:
            for i, val in enumerate(values):
                if not is_count(val):
                    self._refuse(record, i, name, not_count(val))
            return
        if name not in self.packed:
            return
        ok = np.isfinite(values)
        if name in self.nullable:
            ok |= np.isnan(values)
        if name in self.nonnegative:
            ok &= ~(values < 0.0)
        if name in self.squared:
            ok &= ~(np.abs(values) > SQUARE_MAX)
        if not ok.all():
            i = int(np.argmin(ok))
            val = float(values[i])
            self._refuse(record, i, name, f"must not be {val!r}"
                         if not math.isfinite(val)
                         else f"must be nonnegative, got {val!r}"
                         if val < 0.0 and name in self.nonnegative
                         else f"{val!r} squares past the float range")

    def _refuse(self, record, i, name, why):
        where = filter(None, (record and record(i), self.row))
        raise SchemaError(f"{': '.join(where)} field {name!r} {why}")


def write_table(rows, spec):
    """Write the row dicts ``rows`` as one table laid out by the
    :class:`Table` ``spec``: one JSON list per column, entry i from row
    i, or one string for a packed column."""
    table = {}
    for name in spec.columns:
        column = [row[name] for row in rows]
        if name in spec.nested:
            column = write_table(column, spec.nested[name])
        elif name in spec.packed:
            if name in spec.nullable:
                column = [math.nan if val is None else val for val in column]
            column = write_vector(column)
        table[name] = column
    return table


def read_table(table, spec, what, record=None):
    """The row dicts of a table written by :func:`write_table`.

    :class:`SchemaError`, naming the table ``what``, unless every column
    of ``spec`` is there, and no other, each a list (a nested table, or a
    packed string read by :func:`read_vector`) and all of equal length.
    A packed column must hold whole float64 values, and a NaN of a
    nullable column reads as ``None``.  Each column, nested tables'
    included, is tested once by :meth:`Table.check`, whose refusal names
    the record ``record(i)`` (when given, and not ``None``) of row i, the
    table and the field of the first value the layout forbids: the first
    in column order, nested tables' columns in their place, not the lowest
    record."""
    check_fields(table, spec.columns, f"{what} table")
    read = {}
    for name in spec.columns:
        column = values = table[name]
        if name in spec.nested:
            column = read_table(column, spec.nested[name], f"{what} {name}",
                                record)
        elif name in spec.packed:
            values = read_vector(column, f"{what} column {name!r}",
                                 finite=False)
            column = values.tolist()
            if name in spec.nullable:
                column = [None if math.isnan(val) else val for val in column]
        elif not isinstance(column, list):
            raise SchemaError(f"{what} column {name!r} must be a JSON list")
        read[name] = column
        if len(column) != len(read[spec.columns[0]]):
            lengths = {name: len(column) for name, column in read.items()}
            raise SchemaError(f"{what} table columns differ in length:"
                              f" {lengths}")
        if name not in spec.nested:
            spec.check(name, values, record)
    return [dict(zip(read, row)) for row in zip(*read.values())]


#: The fields of a :class:`~bira.qp.SolveCertificate`.
CERT_FIELDS = tuple(SolveCertificate.__dataclass_fields__)

#: The fields of a :class:`~bira.core.PrecisionLevel`.
LEVEL_FIELDS = tuple(PrecisionLevel.__dataclass_fields__)

#: The columns of the trials table: the doubling count j of each trial's
#: weight ``sigma_min * 2**j``, then the certificate of its QP solve.
TRIAL_FIELDS = ("doublings", *CERT_FIELDS)

#: Layouts for :func:`write_table` and :func:`read_table`.
LEDGER_TABLE = Table(LEDGER_FIELDS, counts=LEDGER_FIELDS, row="ledger_delta")
LEVEL_TABLE = Table(LEVEL_FIELDS, packed=LEVEL_FIELDS,
                    nonnegative=LEVEL_FIELDS, row="y_R")
CERT_TABLE = Table(CERT_FIELDS, packed=CERT_FIELDS)
TRIAL_TABLE = CERT_TABLE._replace(columns=TRIAL_FIELDS, counts=("doublings",),
                                  row="restoration trial")
#: The records' tangent certificates: a record that stopped the run wrote
#: none, so each of its fields is null there.  The audit and the replayed
#: search start square the step norm.
TANGENT_CERT_TABLE = CERT_TABLE._replace(nullable=CERT_FIELDS,
                                         squared=("step_norm",),
                                         row="tangent_cert")


def _cert_row(cert):
    """The row of a certificate table that holds ``cert``."""
    return {name: getattr(cert, name) for name in CERT_FIELDS}


def _record_table(cls, columns, nested, counts=(), **layout):
    """The layout of a table of ``cls`` rows with ``columns``: every float
    field among them packed, and nullable when ``cls`` annotates it
    ``float | None``, and every ``int`` field a count, as are ``counts``."""
    names, optional, ints = number_fields(cls)
    return Table(columns, nested,
                 packed=tuple(name for name in names
                              if name in columns and name not in ints),
                 nullable=optional,
                 counts=tuple(name for name in ints if name in columns)
                 + counts,
                 **layout)


@dataclass(frozen=True)
class RestorationOutcome:
    """What one restoration call did and produced.

    ``status`` is one of :data:`~bira.core.RESTORATION_STATUSES`.
    ``h_xk_yR`` is the violation at the outer point at the returned
    precision as the call bounds it: :func:`~bira.core.outer_reference`
    of ``h_xk_yk``, with no evaluation, or, where that gives no bound, its
    value measured at ``y_R``.
    ``h_xR_yR`` is the violation at ``x_R`` measured at ``y_R``: a stage
    measures nothing, so a call whose held value is of a level before its
    stages measures ``x_R`` again, and decides again, before it returns.
    The outer failure tests consume both directly instead of
    re-evaluating.  The outcome is
    the only place a trace writes ``y_R``, ``h_xk_yR`` and ``h_xR_yR``; an
    iteration record reads them from here.  ``h_vec`` is the violation
    vector whose norm is ``h_xR_yR``, kept in memory so a zero tangent step
    need not measure it again; a trace does not write it.  ``refinements``
    counts the call's precision levels and ``stages`` its in-place
    refinements past r (see :func:`~bira.restoration.resta`).
    ``trials`` holds one pair ``(j, certificate)`` per trial: the
    doubling count of the weight ``sigma_min * 2**j`` it was solved at
    and the :class:`~bira.qp.SolveCertificate` of that solve.  A trace
    writes the outcome as a row of :data:`CALL_TABLE`, with ``trials``
    its count of trials, and the trials themselves as rows of
    :data:`TRIAL_TABLE`: ``doublings`` a count, each certificate field
    packed.  No trace writes ``status``: a recorded call is
    ``restored``.
    """

    x_R: np.ndarray
    y_R: PrecisionLevel
    status: str
    h_xR_yR: float
    h_xk_yR: float
    refinements: int
    stages: int
    z_steps: int
    trials: tuple
    max_step_over_h: float | None
    ledger_delta: dict
    h_vec: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def contraction(self):
        """Achieved ratio ``h_xR_yR / h_xk_yR``; 0 when there was no
        violation to contract."""
        return self.h_xR_yR / self.h_xk_yR if self.h_xk_yR > 0.0 else 0.0

    @property
    def inner_desc_tests(self):
        """Trials of the call, each one ratio test, one per entry of
        ``trials``; the name is the one ``bench/run.py`` reads."""
        return len(self.trials)

    def row(self):
        """The outcome's row of the calls table: each written field but
        ``status``, with ``x_R`` written, ``y_R`` a row of
        :data:`LEVEL_TABLE` and ``trials`` counted."""
        d = {name: getattr(self, name) for name in _CALL_COLUMNS}
        d["x_R"] = write_vector(self.x_R)
        d["y_R"] = {"gf": self.y_R.gf, "gh": self.y_R.gh}
        d["trials"] = len(self.trials)
        return d

    @classmethod
    def from_row(cls, d, trials, n=None, *, status="restored"):
        """Rebuild an outcome with ``status`` from its row ``d`` of the
        calls table and its rows ``trials`` of the trials table, as
        :func:`read_table` reads them, their values checked there; ``n``,
        when given, is the length ``x_R`` must have."""
        kw = dict(d, status=status, y_R=PrecisionLevel(**d["y_R"]))
        kw["x_R"] = read_vector(d["x_R"], "x_R", n)
        kw["trials"] = tuple((row.pop("doublings"), SolveCertificate(**row))
                             for row in trials)
        return cls(**kw)


#: The columns of the calls table: every field of an outcome but its
#: status and the violation vector.
_CALL_COLUMNS = tuple(
    name for name in RestorationOutcome.__dataclass_fields__
    if name not in ("h_vec", "status"))
CALL_TABLE = _record_table(
    RestorationOutcome, _CALL_COLUMNS,
    {"y_R": LEVEL_TABLE,
     "ledger_delta": LEDGER_TABLE._replace(row="restoration ledger")},
    counts=("trials",), row="restoration outcome")


#: Fields of record k + 1 that repeat the hand-off of record k, each with
#: the field it repeats: iteration k + 1 starts from the point, precision,
#: values and weight that iteration k accepted.  A trace does not write
#: them; :meth:`RunReport.from_dict` rebuilds them from the previous
#: record, or from the run's ``start`` block for record 0.
CHAIN = {
    "x_k": "x_next",
    "y_k": "y_R",
    "f_xk_yk": "f_xnext_ynext",
    "h_xk_yk": "h_xnext_ynext",
    "theta_before": "theta_after",
}

#: Fields of a record that follow bit for bit from fields a trace writes,
#: so it does not write them: :meth:`IterationRecord.from_row` replays
#: ``mu_k`` as the weight the tangent search started from doubled once per
#: rejected trial, and ``theta_after`` as
#: :func:`~bira.core.update_penalty` of ``theta_before`` and the record's
#: restoration values, as :func:`~bira.solver.bira_run` computed them.  A
#: record that stopped the run (:attr:`IterationRecord.stopped`) updated no
#: weight: ``theta_after`` replays as ``theta_before`` and ``mu_k`` as
#: ``None``.
DERIVED = ("mu_k", "theta_after")

#: Fields of a record that only its tangent search and the penalty update
#: before it measure, so a record that stopped the run holds ``None`` in
#: each, and every other record a value.
SEARCH_FIELDS = ("x_next", "f_xk_yR", "f_xR_yR", "f_xnext_ynext",
                 "h_xnext_ynext", "tangent_cert")


@dataclass(frozen=True)
class IterationRecord:
    """Everything one outer iteration measured, decided, and spent.

    Fields hold measured facts and the weights the iteration chose; values
    that follow from them (``x_R``, ``y_R`` and the violations of the
    restoration outcome, the ``g_*`` precision measures and
    ``step_norm``) are read-only properties.  The tangent phase works at
    the restored precision, so the ``*_xnext_ynext`` values are measured
    at ``y_R``, the precision the next iteration starts from.
    ``tangent_cert`` is the certificate of the accepted tangent solve.
    A record whose stationarity residual passed the stopping test
    (:attr:`stopped`) ends the run at ``x_R``: it searched no tangent step,
    so ``ell_count`` is 0 and its :data:`SEARCH_FIELDS` are ``None``, and
    only the last record of a run may be one.
    The :data:`CHAIN` fields are kept in memory but written once, by the
    record or start block they repeat, and the :data:`DERIVED` fields are
    kept in memory but not written; ``k`` is not written, since a record's
    position in the records table is its index; and ``x_next`` is written
    as ``null`` unless it differs bitwise from ``x_R`` (a tangent step
    that snapped to zero repeats it).  ``x_next``, like every point of a
    trace, is written by :func:`write_vector` and read back bit for bit,
    and so is each float field, as one packed column of
    :data:`RECORD_TABLE`.
    """

    k: int
    x_k: np.ndarray
    x_next: np.ndarray | None
    y_k: PrecisionLevel
    theta_before: float
    theta_after: float
    mu_k: float | None
    ell_count: int
    h_xk_yk: float
    h_xnext_ynext: float | None
    f_xk_yk: float
    f_xk_yR: float | None
    f_xR_yR: float | None
    f_xnext_ynext: float | None
    stationarity_residual: float
    resta: RestorationOutcome
    tangent_cert: SolveCertificate | None
    ledger_delta: dict

    @property
    def stopped(self):
        """Whether the run stopped at this record's restored point, before
        a tangent search."""
        return self.ell_count == 0

    @property
    def x_R(self):
        return self.resta.x_R

    @property
    def y_R(self):
        return self.resta.y_R

    @property
    def h_xk_yR(self):
        return self.resta.h_xk_yR

    @property
    def h_xR_yR(self):
        return self.resta.h_xR_yR

    @property
    def g_yk(self):
        return self.y_k.g

    @property
    def g_yR(self):
        return self.y_R.g

    @property
    def step_norm(self):
        """The accepted tangent step's norm; 0 where the run stopped."""
        return 0.0 if self.stopped else self.tangent_cert.step_norm

    def row(self):
        """The record's row of the records table."""
        d = {name: getattr(self, name) for name in _RECORD_WRITTEN}
        if self.stopped:
            d["tangent_cert"] = dict.fromkeys(CERT_FIELDS)
            d["x_next"] = None
            return d
        d["tangent_cert"] = _cert_row(self.tangent_cert)
        # a zero step writes x_next as null: from_row reads it as x_R
        d["x_next"] = (None if self.x_next.tobytes() == self.x_R.tobytes()
                       else write_vector(self.x_next))
        return d

    @classmethod
    def from_row(cls, d, resta, chain, k, params, mu_start, last=True):
        """Rebuild record ``k`` from its row of the records table, as
        :func:`read_table` reads it, its restoration outcome ``resta``, the
        :data:`CHAIN` fields ``chain`` handed to it and the weight
        ``mu_start`` its tangent search started from, replaying the
        :data:`DERIVED` fields under the run's ``params``; ``last`` says
        whether nothing of the run follows it.

        :class:`SchemaError`, naming the record, for an ``ell_count`` of 0
        where the record is not ``last``, or one that doubles ``mu_start``
        past the float range, for values under which the penalty update
        finds no weight, and for :data:`SEARCH_FIELDS` that are null where
        ``ell_count`` is not 0, or not null where it is (a null ``x_next``
        of a record that searched is ``x_R``)."""
        what = f"iteration record {k}"
        stopped = d["ell_count"] == 0
        if stopped and not last:
            raise SchemaError(f"{what} field 'ell_count' is 0, but the run"
                              " goes on after it: only its last step may"
                              " stop it")
        cert = d["tangent_cert"]
        # a nullable column reads NaN as None: only a stopped record, which
        # writes no tangent step, may hold one
        nulls = [(f"{what} field {name!r}", d[name])
                 for name in SEARCH_FIELDS[1:-1]]
        nulls += [(f"{what}: tangent_cert field {name!r}", val)
                  for name, val in cert.items()]
        if stopped:
            nulls.append((f"{what} field 'x_next'", d["x_next"]))
        for name, val in nulls:
            if (val is None) != stopped:
                raise SchemaError(f"{name} must be null: ell_count 0 says the"
                                  " run stopped at x_R" if stopped
                                  else f"{name} must not be nan")
        with _within(what):
            n = len(chain["x_k"])
            kw = dict(d, **chain, k=k, resta=resta, tangent_cert=None,
                      mu_k=None)
            if stopped:
                return cls(**kw, theta_after=chain["theta_before"])
            kw["tangent_cert"] = SolveCertificate(**cert)
            kw["x_next"] = (resta.x_R if d["x_next"] is None
                            else read_vector(d["x_next"], "x_next", n))
            ell = d["ell_count"]
            try:
                kw["mu_k"] = math.ldexp(mu_start, ell - 1)
            except OverflowError:
                raise SchemaError(f"ell_count {ell} doubles the tangent"
                                  " weight past the float range") from None
            try:
                kw["theta_after"] = update_penalty(
                    chain["theta_before"], d["f_xR_yR"], d["f_xk_yR"],
                    resta.h_xk_yR, resta.h_xR_yR, chain["y_k"].g, resta.y_R.g,
                    params.r)
            except (ContractError, InvariantError) as exc:
                raise SchemaError("the replayed penalty update finds no"
                                  f" weight: {exc}") from None
        return cls(**kw)


_RECORD_WRITTEN = tuple(name for name in IterationRecord.__dataclass_fields__
                        if name not in CHAIN and name not in DERIVED
                        and name not in ("k", "resta"))
RECORD_TABLE = _record_table(
    IterationRecord, _RECORD_WRITTEN,
    {"tangent_cert": TANGENT_CERT_TABLE, "ledger_delta": LEDGER_TABLE},
    # the audit's residual_summability squares the residual
    squared=("stationarity_residual",))


@dataclass
class RunReport:
    """Complete, replayable account of one solver run.

    ``start`` holds the point, precision, objective value and violation
    norm measured before the first iteration; the final point is chosen
    from the records by the status.  ``failure_info`` is ``None`` unless
    the status is ``RestorationFailure``; then it holds the failure
    ``kind`` and the :class:`RestorationOutcome` of the failing call as
    ``resta``.  That call is the iteration after the last record, so its
    index is the number of records.  The status and kind are entries of
    :data:`~bira.core.RUN_STATUSES` and :data:`~bira.core.FAILURE_KINDS`.
    A trace writes ``failure_info`` as ``{"kind"}`` and the call as the
    last row of the calls table, and the call's status is
    ``possible_infeasibility`` exactly when the kind is.
    """

    status: str
    problem_name: str
    records: list
    failure_info: dict | None
    start: dict
    params: AlgorithmParams
    tolerances: dict
    constants_basis: dict
    ledger_totals: dict
    budget: int
    trace_version: int = TRACE_VERSION

    @property
    def iterations(self):
        return len(self.records)

    @property
    def calls(self):
        """The run's restoration calls in the order of the calls table:
        each record's, then the failing call of a ``RestorationFailure``."""
        outs = [rec.resta for rec in self.records]
        if self.failure_info is not None:
            outs.append(self.failure_info["resta"])
        return outs

    def _final(self):
        if (self.failure_info is not None
                and self.failure_info["kind"] == "possible_infeasibility"):
            out = self.failure_info["resta"]
            return out.x_R, out.y_R
        if not self.records:
            return self.start["x"], self.start["y"]
        last = self.records[-1]
        # a record that stopped the run took no step past x_R
        if self.status == "Converged" or last.stopped:
            return last.x_R, last.y_R
        # out of budget, or a restoration outcome failed its tests: the
        # run stops at the point the last iteration accepted
        return last.x_next, last.y_R

    @property
    def final_x(self):
        return self._final()[0]

    @property
    def final_y(self):
        """The final :class:`~bira.core.PrecisionLevel`."""
        return self._final()[1]

    def to_dict(self):
        d = {name: getattr(self, name) for name in self.__dataclass_fields__}
        d["records"] = write_table([rec.row() for rec in self.records],
                                   RECORD_TABLE)
        outs = self.calls
        if self.failure_info is not None:
            d["failure_info"] = {"kind": self.failure_info["kind"]}
        d["calls"] = write_table([out.row() for out in outs], CALL_TABLE)
        d["trials"] = write_table(
            [{"doublings": j, **_cert_row(cert)}
             for out in outs for j, cert in out.trials], TRIAL_TABLE)
        start = self.start
        d["start"] = {"x": write_vector(start["x"]),
                      "y": list(start["y"].as_tuple()),
                      "f": start["f"], "h": start["h"]}
        d["params"] = self.params.to_dict()
        d["tolerances"] = dict(self.tolerances)
        d["constants_basis"] = {key: dict(val) for key, val
                                in self.constants_basis.items()}
        d["ledger_totals"] = dict(self.ledger_totals)
        return d

    @classmethod
    def from_dict(cls, d):
        # the version decides the schema, so it is read before the fields
        if not isinstance(d, dict):
            raise SchemaError("trace must be a JSON object")
        version = d.get("trace_version")
        if version != TRACE_VERSION:
            raise SchemaError(f"trace version {version!r} not supported")
        check_fields(d, (*cls.__dataclass_fields__, "calls", "trials"),
                     "trace")
        basis = d["constants_basis"]
        check_fields(basis, ("problem_constants", "extras"),
                     "constants basis")
        check_fields(basis["problem_constants"],
                     ProblemConstants.__dataclass_fields__, "problem constants")
        check_numbers(basis["problem_constants"], "problem constants",
                      number_fields(ProblemConstants)[0])
        check_numbers(basis["extras"], "extras", finite=True)
        check_fields(d["params"], AlgorithmParams.__dataclass_fields__,
                     "params")
        check_numbers(d["params"], "params")
        check_count(d["budget"], "budget")
        check_fields(d["tolerances"], ("eps_feas", "eps_prec", "eps_opt"),
                     "tolerances")
        check_numbers(d["tolerances"], "tolerances")
        if not all(map(valid_tolerance, d["tolerances"].values())):
            raise SchemaError("tolerances must be positive and finite")
        check_ledger(d["ledger_totals"], "ledger totals")
        status = d["status"]
        if status not in RUN_STATUSES:
            raise SchemaError(f"unknown status {status!r}")
        failure = d["failure_info"]
        if (failure is None) == (status == "RestorationFailure"):
            raise SchemaError("failure info must be written exactly when the"
                              " status is RestorationFailure")
        start = d["start"]
        check_fields(start, ("x", "y", "f", "h"), "start")
        check_numbers(start, "start", ("f", "h"), finite=True)
        x0 = read_vector(start["x"], "start x")
        # every point of the run has the start point's length
        n = len(x0)
        if n == 0:
            raise SchemaError("start x must have at least one coordinate")
        kw = {name: d[name] for name in cls.__dataclass_fields__}
        kind = None
        if failure is not None:
            check_fields(failure, ("kind",), "failure info")
            kind = failure["kind"]
            if kind not in FAILURE_KINDS:
                raise SchemaError(f"unknown failure kind {kind!r}")
        rows = read_table(d["records"], RECORD_TABLE, "records",
                          "iteration record {}".format)
        # the calls table holds record k's call in row k, then the failing
        # call; a row past them names no record
        want = len(rows) + (failure is not None)

        def call(k):
            return (f"iteration record {k}" if k < len(rows)
                    else "failure info" if k < want else None)

        calls = read_table(d["calls"], CALL_TABLE, "calls", call)
        if len(calls) != want:
            raise SchemaError(
                f"calls table must hold one row per record"
                f"{' and the failing call' if failure else ''}, {want},"
                f" got {len(calls)}")
        # call k's trials are rows ends[k] to ends[k + 1] of the trials table
        ends = list(itertools.accumulate((row["trials"] for row in calls),
                                         initial=0))
        trials = read_table(d["trials"], TRIAL_TABLE, "trials",
                            lambda i: call(bisect.bisect_right(ends, i) - 1))
        if len(trials) != ends[-1]:
            raise SchemaError(f"calls column 'trials' counts {ends[-1]}"
                              " trials, but the trials table holds"
                              f" {len(trials)} rows")
        outs = []
        for k, row in enumerate(calls):
            # the failing call's status is its kind where that is one
            status = ("possible_infeasibility" if k == len(rows)
                      and kind == "possible_infeasibility" else "restored")
            with _within(call(k)):
                outs.append(RestorationOutcome.from_row(
                    row, trials[ends[k]:ends[k + 1]], n, status=status))
        if failure is not None:
            kw["failure_info"] = {"kind": kind, "resta": outs[-1]}
        kw["start"] = {
            "x": x0,
            "y": _level(start["y"], "start y"),
            "f": start["f"], "h": start["h"],
        }
        params = kw["params"] = AlgorithmParams.from_dict(d["params"])
        chain = {"x_k": kw["start"]["x"], "y_k": kw["start"]["y"],
                 "f_xk_yk": start["f"], "h_xk_yk": start["h"],
                 "theta_before": THETA_0}
        mu_start = MU_INIT
        kw["records"] = []
        for k, row in enumerate(rows):
            # nothing follows the record that stopped the run: no record,
            # and no failing restoration call
            rec = IterationRecord.from_row(
                row, outs[k], chain, k, params, mu_start,
                last=k == len(rows) - 1 and failure is None)
            kw["records"].append(rec)
            if rec.stopped:
                # the last record: from_row refuses a stopped one before it
                break
            chain = {name: getattr(rec, src) for name, src in CHAIN.items()}
            mu_start = tangent_mu_start(
                params, rec.mu_k, rec.f_xR_yR, rec.f_xnext_ynext,
                rec.step_norm, rec.tangent_cert.model_decrease)
        kw["tolerances"] = dict(d["tolerances"])
        kw["ledger_totals"] = dict(d["ledger_totals"])
        return cls(**kw)


def trace_bytes(report):
    """The JSON trace of ``report``: the bytes ``bira run --out`` writes,
    the same for the same run."""
    return (json.dumps(report.to_dict(), sort_keys=True, indent=2)
            + "\n").encode("utf-8")


def read_trace(path):
    """Load the :class:`RunReport` of the JSON trace at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return RunReport.from_dict(json.load(fh))
