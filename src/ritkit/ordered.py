"""Calls run several at once, with their results handed back in input order."""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
U = TypeVar("U")


def ordered_map(fn: Callable[[T], U], items: Iterable[T], jobs: int = 1) -> Iterator[U]:
    """Yield `fn(item)` for each item, in input order, with up to `jobs` calls at once.

    The calling thread and `jobs - 1` helper threads each start the earliest
    item that has not started; with `jobs` 1 no thread starts. The helpers
    start only once the first call has returned, so that call goes out
    alone. Results wait, in memory, for their turn.

    Once a call has raised, no new call starts. The calls still running are
    waited for, and the first exception in input order is raised in its
    turn, so nothing an item after it returned is yielded. Every item before
    it has started by then, so each is yielded as it would be one at a time.
    A KeyboardInterrupt or SystemExit in the calling thread, or closing the
    generator early, also stops new calls but does not wait for running ones.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    items = list(items)
    cond = threading.Condition()
    outcomes: dict[int, tuple] = {}  # index -> (result, exception)
    started = 0  # items[:started] have started
    stopped = False  # a call raised, or the caller is done
    helpers: list[threading.Thread] = []

    def claim() -> int | None:  # with `cond` held
        nonlocal started
        if stopped or started == len(items):
            return None
        started += 1
        return started - 1

    def run(i: int, catching: type[BaseException] = Exception) -> None:
        nonlocal stopped
        try:
            outcome = (fn(items[i]), None)
        except catching as exc:  # raised in the calling thread, in its turn
            outcome = (None, exc)
        with cond:
            outcomes[i] = outcome
            stopped = stopped or outcome[1] is not None
            cond.notify_all()

    def help_out() -> None:
        while True:
            with cond:
                i = claim()
            if i is None:
                return
            run(i, BaseException)  # any exception: the calling thread waits for this item's outcome

    wait = True  # join the helpers at the end
    try:
        for position in range(len(items)):
            while True:
                with cond:
                    i = None if position in outcomes else claim()
                    if i is None:
                        cond.wait_for(lambda: position in outcomes)
                        result, exc = outcomes.pop(position)
                        break
                run(i)
            if exc is not None:
                raise exc
            if position == 0:
                helpers.extend(threading.Thread(target=help_out, daemon=True) for _ in range(min(jobs, len(items)) - 1))
                for helper in helpers:
                    helper.start()
            yield result
    except BaseException as exc:  # KeyboardInterrupt, SystemExit and GeneratorExit do not wait
        wait = isinstance(exc, Exception)
        raise
    finally:
        with cond:
            stopped = True
        if wait:
            for helper in helpers:
                helper.join()
